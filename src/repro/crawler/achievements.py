"""Phase 4: per-game global achievement percentages (May 2016)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.phase import resume, run_phase
from repro.crawler.session import CrawlSession
from repro.steamapi.errors import NotFoundError

__all__ = ["AchievementCrawl", "crawl_achievements"]

PHASE = "achievements"


@dataclass
class AchievementCrawl:
    """Per-appid achievement completion rates (fractions in [0, 1])."""

    rates_by_appid: dict[int, np.ndarray]


def crawl_achievements(
    session: CrawlSession,
    appids: list[int],
    checkpoint: CrawlCheckpoint | None = None,
    skip_failed: bool = False,
) -> AchievementCrawl:
    """Fetch global achievement percentages for every app in ``appids``."""
    # (appid, [rates]) pairs: JSON-stashable, dict-ified at the end.
    state = resume(checkpoint, PHASE, {"rates": []})
    rates = state["rates"]
    path = "/ISteamUserStats/GetGlobalAchievementPercentagesForApp/v2"

    def harvest(position: int, appid: int, payloads: list[dict]) -> None:
        entries = payloads[0]["achievementpercentages"]["achievements"]
        rates.append(
            [int(appid), [float(e["percent"]) / 100.0 for e in entries]]
        )

    run_phase(
        session,
        checkpoint,
        PHASE,
        appids,
        lambda appid: ((path, {"gameid": int(appid)}),),
        harvest,
        state=state,
        skip_failed=skip_failed,
        # An app without achievements is a non-event, not a failure.
        non_event=NotFoundError,
    )

    return AchievementCrawl(
        rates_by_appid={
            int(appid): np.array(values, dtype=np.float32)
            for appid, values in rates
        }
    )
