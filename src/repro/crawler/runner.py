"""Full-crawl orchestration: four phases in, one SteamDataset out."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.crawler.achievements import crawl_achievements
from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.details import DetailCrawl, crawl_details
from repro.crawler.phase import run_phase
from repro.crawler.profiles import ProfileSweep, sweep_profiles
from repro.crawler.retry import RetryPolicy
from repro.crawler.session import CrawlSession, open_crawl
from repro.crawler.storefront import catalog_arrays, crawl_storefront
from repro.obs import Obs, maybe_span
from repro.steamapi.models import GROUP_ID_BASE
from repro.steamapi.transport import Transport
from repro.store.dataset import DatasetMeta, SteamDataset
from repro.store.tables import (
    AccountTable,
    AchievementTable,
    CatalogTable,
    CSRMatrix,
    FriendTable,
    GroupTable,
    GroupType,
    LibraryTable,
    Snapshot2Table,
)

__all__ = ["CrawlResult", "run_full_crawl", "scrape_group_labels"]


@dataclass
class CrawlResult:
    """A crawled dataset plus collection statistics."""

    dataset: SteamDataset
    requests_made: int
    sweep: ProfileSweep
    #: Physical transport attempts, retries included (>= requests_made;
    #: this is what an API-key budget is charged for).
    attempts: int = 0
    #: Transient failures that were retried (rate limits, 5xx, timeouts,
    #: malformed payloads) across all phases.
    retries: int = 0
    #: Identifiers skipped after retries kept failing, by phase
    #: (graceful degradation; only populated with ``skip_failed=True``).
    skipped: dict = field(default_factory=dict)
    #: Faults injected by the transport, by kind — populated when the
    #: transport is a :class:`~repro.steamapi.faults.FaultInjectingTransport`.
    injected_faults: dict = field(default_factory=dict)

    @property
    def n_skipped(self) -> int:
        return sum(len(v) for v in self.skipped.values())

    @property
    def n_injected_faults(self) -> int:
        return sum(self.injected_faults.values())


def _assemble_accounts(sweep: ProfileSweep) -> AccountTable:
    """Build the account table; country names ordered by report count."""
    counts: dict[str, int] = {}
    for name in sweep.countries:
        if name is not None:
            counts[name] = counts.get(name, 0) + 1
    names = tuple(sorted(counts, key=lambda n: -counts[n]))
    index = {name: i for i, name in enumerate(names)}
    country = np.array(
        [index[name] if name is not None else -1 for name in sweep.countries],
        dtype=np.int16,
    )
    return AccountTable(
        id_offset=sweep.offsets,
        created_day=sweep.created_day,
        country=country,
        city=sweep.cities.astype(np.int32),
        country_names=names,
    )


def _assemble_friends(
    details: DetailCrawl, offsets: np.ndarray, base: int
) -> FriendTable:
    """SteamID pairs -> dense-index canonical edge list."""
    if len(details.edge_a) == 0:
        empty = np.empty(0, dtype=np.int32)
        return FriendTable(
            u=empty, v=empty, day=empty.copy(), n_users=len(offsets)
        )
    a = np.searchsorted(offsets, details.edge_a - base)
    b = np.searchsorted(offsets, details.edge_b - base)
    valid = (
        (a < len(offsets))
        & (b < len(offsets))
        & (offsets[np.minimum(a, len(offsets) - 1)] == details.edge_a - base)
        & (offsets[np.minimum(b, len(offsets) - 1)] == details.edge_b - base)
    )
    a, b, day = a[valid], b[valid], details.edge_day[valid]
    lo = np.minimum(a, b).astype(np.int64)
    hi = np.maximum(a, b).astype(np.int64)
    key = lo * np.int64(len(offsets)) + hi
    _, first = np.unique(key, return_index=True)
    return FriendTable(
        u=lo[first].astype(np.int32),
        v=hi[first].astype(np.int32),
        day=day[first],
        n_users=len(offsets),
    )


def _assemble_library(
    details: DetailCrawl, n_users: int, catalog_appids: np.ndarray
) -> LibraryTable:
    """Map appids to dense product indices and build the user CSR."""
    product = np.searchsorted(catalog_appids, details.lib_appid)
    product = np.clip(product, 0, len(catalog_appids) - 1)
    valid = catalog_appids[product] == details.lib_appid
    user = details.lib_user[valid]
    owned, order = CSRMatrix.from_pairs(
        user, product[valid].astype(np.int32), n_users
    )
    return LibraryTable(
        owned=owned,
        total_min=details.lib_total_min[valid][order],
        twoweek_min=details.lib_twoweek_min[valid][order],
    )


def scrape_group_labels(
    session: CrawlSession,
    group_type: np.ndarray,
    focus: np.ndarray,
    sizes: np.ndarray,
    catalog_appids: np.ndarray,
    label_top_n: int,
    checkpoint: CrawlCheckpoint | None = None,
    skip_failed: bool = False,
) -> None:
    """Label the ``label_top_n`` largest groups via community-page scrape.

    Mutates ``group_type``/``focus`` in place; all other groups keep
    whatever default they already hold.  Shared by the full crawl and
    the delta crawl so both label the same groups from the same member
    counts.
    """
    n_groups = len(group_type)
    top = np.argsort(-sizes, kind="stable")[: min(label_top_n, n_groups)]

    def harvest(position: int, gid: int, payloads: list[dict]) -> None:
        g = gid - GROUP_ID_BASE
        group = payloads[0]["group"]
        group_type[g] = group["type"]
        focus_appid = group.get("focus_appid")
        if focus_appid is not None:
            pos = int(np.searchsorted(catalog_appids, int(focus_appid)))
            if (
                pos < len(catalog_appids)
                and catalog_appids[pos] == focus_appid
            ):
                focus[g] = pos

    # Not resumable: a group whose retries run dry under ``skip_failed``
    # keeps its default label.
    run_phase(
        session,
        checkpoint,
        "groups",
        [GROUP_ID_BASE + int(g) for g in top],
        lambda gid: (("/community/group", {"gid": gid}),),
        harvest,
        skip_failed=skip_failed,
    )


def _assemble_groups(
    session: CrawlSession,
    details: DetailCrawl,
    n_users: int,
    catalog_appids: np.ndarray,
    label_top_n: int,
    checkpoint: CrawlCheckpoint | None = None,
    skip_failed: bool = False,
) -> GroupTable:
    """Memberships -> group table; top groups labelled via page scrape."""
    if len(details.member_group):
        n_groups = int(details.member_group.max()) + 1
    else:
        n_groups = 0
    members, _ = CSRMatrix.from_pairs(
        details.member_group,
        details.member_user.astype(np.int32),
        n_groups,
    )
    group_type = np.full(
        n_groups, int(GroupType.SPECIAL_INTEREST), dtype=np.int8
    )
    focus = np.full(n_groups, -1, dtype=np.int32)
    scrape_group_labels(
        session,
        group_type,
        focus,
        members.counts(),
        catalog_appids,
        label_top_n,
        checkpoint=checkpoint,
        skip_failed=skip_failed,
    )
    return GroupTable(
        group_type=group_type,
        focus_game=focus,
        members=members,
        n_users=n_users,
    )


def _assemble_achievements(
    rates_by_appid: dict[int, np.ndarray], catalog_appids: np.ndarray
) -> AchievementTable:
    n = len(catalog_appids)
    counts = np.zeros(n, dtype=np.int64)
    rate_lists: list[np.ndarray] = [np.empty(0, dtype=np.float32)] * n
    for appid, rates in rates_by_appid.items():
        pos = int(np.searchsorted(catalog_appids, appid))
        if pos < n and catalog_appids[pos] == appid:
            counts[pos] = len(rates)
            rate_lists[pos] = rates
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    rates = (
        np.concatenate(rate_lists)
        if any(len(r) for r in rate_lists)
        else np.empty(0, dtype=np.float32)
    )
    return AchievementTable(
        count=counts, indptr=indptr, rates=rates.astype(np.float32)
    )


def run_full_crawl(
    transport: Transport,
    advertised_rate: float = 1e9,
    politeness: float = 0.85,
    label_top_groups: int = 250,
    checkpoint: CrawlCheckpoint | None = None,
    snapshot2: Snapshot2Table | None = None,
    clock=None,
    sleeper=None,
    stop_after_empty: int = 100,
    retry: RetryPolicy | None = None,
    skip_failed: bool = False,
    obs: Obs | None = None,
) -> CrawlResult:
    """Run all crawl phases and assemble the dataset.

    ``advertised_rate`` defaults to effectively-unlimited so that
    simulated full crawls don't actually sleep; pass the real limit (and
    optionally a virtual clock) to study crawl duration, as
    ``benchmarks/bench_crawler_throughput.py`` does.

    ``snapshot2`` may carry the second-crawl aggregates forward (the
    repeat crawl is byte-identical mechanics, so it is not replayed).

    ``retry`` overrides the retry policy (e.g. to enable seeded full
    jitter for a chaos run); ``skip_failed`` turns persistent per-item
    failures into logged skips instead of an aborted crawl — the skip
    log lands in the checkpoint's ``extra`` and on the returned
    :class:`CrawlResult`.

    When a transient failure does escape mid-phase as
    :class:`~repro.crawler.retry.RetriesExhausted` (``skip_failed``
    off), every phase first persists its cursor *and* partial harvest
    into the checkpoint, so re-invoking ``run_full_crawl`` with the same
    checkpoint resumes losslessly.

    ``obs`` turns on observability (see :mod:`repro.obs`): per-endpoint
    request counters and latency histograms, retry/backoff/skip
    counters, checkpoint-save timings, a live throughput gauge, and a
    span per crawl phase.  ``None`` (the default) keeps the hot path
    instrumentation-free.
    """
    from repro import constants

    session, checkpoint = open_crawl(
        transport,
        advertised_rate,
        politeness,
        clock,
        sleeper,
        retry,
        skip_failed,
        obs,
        checkpoint,
    )

    with maybe_span(obs, "crawl"):
        with maybe_span(obs, "phase:profiles"):
            sweep = sweep_profiles(
                session,
                checkpoint=checkpoint,
                stop_after_empty=stop_after_empty,
                skip_failed=skip_failed,
            )
        if obs is not None:
            obs.gauge(
                "crawler_accounts_discovered",
                "Valid accounts found by the phase-1 sweep",
            ).set(sweep.n_accounts)
        with maybe_span(obs, "assemble:accounts"):
            accounts = _assemble_accounts(sweep)

        with maybe_span(obs, "phase:storefront"):
            catalog_crawl = crawl_storefront(
                session, checkpoint=checkpoint, skip_failed=skip_failed
            )
            columns = catalog_arrays(catalog_crawl)
            genre_names = columns.pop("genre_names")
            catalog = CatalogTable(genre_names=tuple(genre_names), **columns)

        steamids = sweep.offsets + constants.STEAMID_BASE
        with maybe_span(obs, "phase:details", accounts=len(steamids)):
            details = crawl_details(
                session,
                steamids,
                checkpoint=checkpoint,
                skip_failed=skip_failed,
            )
        with maybe_span(obs, "assemble:friends_library"):
            friends = _assemble_friends(
                details, sweep.offsets, constants.STEAMID_BASE
            )
            library = _assemble_library(
                details, sweep.n_accounts, catalog.appid.astype(np.int64)
            )
        with maybe_span(obs, "phase:groups"):
            groups = _assemble_groups(
                session,
                details,
                sweep.n_accounts,
                catalog.appid.astype(np.int64),
                label_top_groups,
                checkpoint=checkpoint,
                skip_failed=skip_failed,
            )
        with maybe_span(obs, "phase:achievements"):
            ach_crawl = crawl_achievements(
                session,
                [int(a) for a in catalog.appid],
                checkpoint=checkpoint,
                skip_failed=skip_failed,
            )
            achievements = _assemble_achievements(
                ach_crawl.rates_by_appid, catalog.appid.astype(np.int64)
            )

        with maybe_span(obs, "assemble:dataset"):
            dataset = SteamDataset(
                accounts=accounts,
                friends=friends,
                groups=groups,
                catalog=catalog,
                library=library,
                achievements=achievements,
                snapshot2=snapshot2,
                meta=DatasetMeta(scale_note="assembled by crawler"),
            )
    return CrawlResult(
        dataset=dataset,
        requests_made=session.requests_made,
        sweep=sweep,
        attempts=session.attempts,
        retries=session.retries,
        skipped=dict(checkpoint.failures()) if checkpoint else {},
        injected_faults=dict(
            getattr(transport, "fault_counts", None) or {}
        ),
    )
