"""Phase 3: the product catalog via the storefront endpoint.

The paper fetched every product's storefront payload (genres, type,
price, Metacritic, release date) one app per request, voluntarily paced
at one request per two seconds.  App IDs come from the unpublicized
``GetAppList`` endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.phase import resume, run_phase
from repro.crawler.session import CrawlSession
from repro.steamapi.models import AppDetails

__all__ = ["CatalogCrawl", "crawl_storefront"]

PHASE = "storefront"


@dataclass
class CatalogCrawl:
    """Phase-3 harvest: one :class:`AppDetails` per product."""

    details: list[AppDetails]

    @property
    def n_products(self) -> int:
        return len(self.details)

    def genre_names(self) -> tuple[str, ...]:
        """All genre labels observed, in first-seen order."""
        seen: dict[str, None] = {}
        for item in self.details:
            for genre in item.genres:
                seen.setdefault(genre, None)
        return tuple(seen)


def crawl_storefront(
    session: CrawlSession,
    checkpoint: CrawlCheckpoint | None = None,
    skip_failed: bool = False,
) -> CatalogCrawl:
    """Fetch the app list, then every product's storefront payload."""
    # Raw (appid, entry) payloads: JSON-stashable, rebuilt into
    # AppDetails at the end, so resume reconstructs identical parses.
    state = resume(checkpoint, PHASE, {"entries": []})
    entries = state["entries"]

    def harvest(position: int, appid: int, payloads: list[dict]) -> None:
        entry = payloads[0][str(appid)]
        if entry.get("success"):
            entries.append([appid, entry])

    if checkpoint is None or not checkpoint.is_done(PHASE):
        applist = session.get("/ISteamApps/GetAppList/v2")["applist"]["apps"]
        run_phase(
            session,
            checkpoint,
            PHASE,
            sorted(int(app["appid"]) for app in applist),
            lambda appid: (("/appdetails", {"appids": appid}),),
            harvest,
            state=state,
            skip_failed=skip_failed,
        )

    return CatalogCrawl(
        details=[
            AppDetails.from_json(int(appid), entry)
            for appid, entry in entries
        ]
    )


def catalog_arrays(crawl: CatalogCrawl) -> dict[str, np.ndarray]:
    """Columnar views of the phase-3 harvest (for table assembly)."""
    names = crawl.genre_names()
    index = {name: i for i, name in enumerate(names)}
    n = crawl.n_products
    appid = np.empty(n, dtype=np.int32)
    is_game = np.empty(n, dtype=bool)
    primary = np.zeros(n, dtype=np.int8)
    mask = np.zeros(n, dtype=np.uint64)
    price = np.empty(n, dtype=np.int32)
    multiplayer = np.empty(n, dtype=bool)
    release = np.empty(n, dtype=np.int32)
    metacritic = np.zeros(n, dtype=np.int8)
    for i, item in enumerate(crawl.details):
        appid[i] = item.appid
        is_game[i] = item.app_type == "game"
        price[i] = item.price_cents
        multiplayer[i] = item.multiplayer
        release[i] = item.release_day
        metacritic[i] = item.metacritic or 0
        bits = np.uint64(0)
        for g, genre in enumerate(item.genres):
            bit = np.uint64(1) << np.uint64(index[genre])
            bits |= bit
            if g == 0:
                primary[i] = index[genre]
        mask[i] = bits
    return {
        "appid": appid,
        "is_game": is_game,
        "primary_genre": primary,
        "genre_mask": mask,
        "price_cents": price,
        "multiplayer": multiplayer,
        "release_day": release,
        "metacritic": metacritic,
        "genre_names": names,
    }
