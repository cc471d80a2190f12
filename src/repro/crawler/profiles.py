"""Phase 1: exhaustive ID-space sweep (Section 3.1).

Queries ``GetPlayerSummaries`` for consecutive 100-ID windows starting at
the SteamID base, recording every account that answers.  The sweep stops
once a run of consecutive windows comes back empty (the paper stopped
when it reached accounts "created just seconds before the moment of
collection").  Window occupancy is recorded so the density profile the
paper describes (<50% early, >90% late) can be re-derived.

Each window is one item of :func:`repro.crawler.phase.run_phase`; the
checkpoint cursor counts IDs, not windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import constants
from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.phase import resume, run_phase
from repro.crawler.session import CrawlSession, unix_to_day
from repro.steamapi.service import MAX_SUMMARY_BATCH

__all__ = ["ProfileSweep", "sweep_profiles"]

PHASE = "profiles"

#: Steam account numbers are 32-bit: the ID offsets a sweep can visit.
_ID_SPACE = 2**32


@dataclass
class ProfileSweep:
    """Everything phase 1 learned."""

    #: ID offsets of valid accounts, ascending.
    offsets: np.ndarray
    created_day: np.ndarray
    #: Reported country name per account (None when unreported).
    countries: list[str | None]
    #: Reported city id per account (-1 when unreported).
    cities: np.ndarray
    #: Per-window (start_offset, hits) pairs for the density profile.
    window_hits: list[tuple[int, int]] = field(default_factory=list)

    @property
    def n_accounts(self) -> int:
        return len(self.offsets)

    def density_profile(self, n_bins: int = 20) -> np.ndarray:
        """Fraction of valid IDs per ID-range bin (Section 3.1)."""
        if not self.window_hits:
            return np.empty(0)
        starts = np.array([w[0] for w in self.window_hits], dtype=np.float64)
        hits = np.array([w[1] for w in self.window_hits], dtype=np.float64)
        occupied = hits > 0
        if not occupied.any():
            return np.zeros(n_bins)
        # Ignore the trailing all-empty run that terminated the sweep.
        end = starts[occupied].max() + MAX_SUMMARY_BATCH
        keep = starts < end
        starts, hits = starts[keep], hits[keep]
        edges = np.linspace(0, end, n_bins + 1)
        out = np.zeros(n_bins)
        for i in range(n_bins):
            mask = (starts >= edges[i]) & (starts < edges[i + 1])
            if mask.any():
                out[i] = hits[mask].sum() / (mask.sum() * MAX_SUMMARY_BATCH)
        return out


def sweep_profiles(
    session: CrawlSession,
    stop_after_empty: int = 100,
    max_offset: int | None = None,
    checkpoint: CrawlCheckpoint | None = None,
    batch_size: int = MAX_SUMMARY_BATCH,
    skip_failed: bool = False,
) -> ProfileSweep:
    """Run (or resume) the phase-1 sweep.

    ``batch_size`` is how many IDs each GetPlayerSummaries call carries
    (<= the API's limit of 100); the ablation benchmark sweeps it.
    """
    if not 1 <= batch_size <= MAX_SUMMARY_BATCH:
        raise ValueError("batch_size must be in [1, 100]")
    state = resume(
        checkpoint,
        PHASE,
        {
            "offsets": [],
            "created": [],
            "countries": [],
            "cities": [],
            "window_hits": [],
            "empty_run": 0,
        },
    )
    offsets, created, countries, cities, window_hits = (
        state[k]
        for k in ("offsets", "created", "countries", "cities", "window_hits")
    )
    base = constants.STEAMID_BASE
    path = "/ISteamUser/GetPlayerSummaries/v2"

    def requests(offset: int) -> tuple:
        start = base + offset
        ids = ",".join(str(start + i) for i in range(batch_size))
        return ((path, {"steamids": ids}),)

    def harvest(position: int, offset: int, payloads: list[dict]) -> bool:
        players = payloads[0]["response"]["players"]
        window_hits.append([offset, len(players)])
        if not players:
            state["empty_run"] += 1
            return state["empty_run"] >= stop_after_empty
        state["empty_run"] = 0
        for player in players:
            offsets.append(int(player["steamid"]) - base)
            created.append(unix_to_day(player["timecreated"]))
            countries.append(player.get("loccountrycode"))
            cities.append(int(player.get("loccityid", -1)))
        return False

    def limit(position: int) -> int:
        # Termination takes ``stop_after_empty - empty_run`` more empty
        # windows, so a window no longer than that issues exactly the
        # requests of the one-at-a-time sweep: the stop can only fall
        # on its last item.
        n = stop_after_empty - state["empty_run"]
        if max_offset is not None:
            # An explicit bound pauses the sweep unfinished, so a
            # resume keeps sweeping.
            n = min(n, -(-(max_offset - position * batch_size) // batch_size))
        return n

    # A skipped window's occupancy is unknown, so it joins neither the
    # hit list nor the empty run.
    run_phase(
        session,
        checkpoint,
        PHASE,
        range(0, _ID_SPACE, batch_size),
        requests,
        harvest,
        state=state,
        skip_failed=skip_failed,
        limit=limit,
        cursor_step=batch_size,
    )

    order = np.argsort(np.array(offsets, dtype=np.int64), kind="stable")
    return ProfileSweep(
        offsets=np.array(offsets, dtype=np.int64)[order],
        created_day=np.array(created, dtype=np.int32)[order],
        countries=[countries[i] for i in order],
        cities=np.array(cities, dtype=np.int64)[order],
        window_hits=[(int(s), int(h)) for s, h in window_hits],
    )
