"""Phase 2: per-user friends, games, and group memberships.

One account per API call (three calls per account), which is why the
paper's phase 2 took six months against phase 1's three weeks.  Results
accumulate into flat arrays ready for CSR assembly.

Each account's three calls commit together: the harvest lists only
grow once all three succeeded, so an abort mid-account never leaves
half an account behind (the retried account would otherwise duplicate
its edges on resume).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.phase import resume, run_phase
from repro.crawler.session import CrawlSession, unix_to_day
from repro.steamapi.errors import PrivateProfileError
from repro.steamapi.models import GROUP_ID_BASE

__all__ = ["DetailCrawl", "crawl_details"]

PHASE = "details"

#: Accounts between checkpoint saves.
CHECKPOINT_EVERY = 2_000

_STASH_COLUMNS = (
    "edge_a",
    "edge_b",
    "edge_day",
    "lib_user",
    "lib_appid",
    "lib_total",
    "lib_twoweek",
    "member_user",
    "member_group",
)


@dataclass
class DetailCrawl:
    """Raw detail-phase harvest (SteamID-keyed, pre-assembly)."""

    #: Friendship endpoints as raw SteamIDs plus formation day (-1 when
    #: the friendship predates Steam's Sept-2008 timestamping epoch).
    edge_a: np.ndarray
    edge_b: np.ndarray
    edge_day: np.ndarray
    #: Library entries: crawled-user position, appid, playtimes (minutes).
    lib_user: np.ndarray
    lib_appid: np.ndarray
    lib_total_min: np.ndarray
    lib_twoweek_min: np.ndarray
    #: Membership entries: crawled-user position, dense group index.
    member_user: np.ndarray
    member_group: np.ndarray
    #: Accounts whose details were private (modern-API behavior).
    n_private: int = 0
    #: Accounts skipped after persistent failures (graceful degradation).
    n_skipped: int = 0


def crawl_details(
    session: CrawlSession,
    steamids: np.ndarray,
    checkpoint: CrawlCheckpoint | None = None,
    skip_failed: bool = False,
) -> DetailCrawl:
    """Crawl friends/games/groups for every account in ``steamids``."""
    state = resume(
        checkpoint,
        PHASE,
        {
            **{name: [] for name in _STASH_COLUMNS},
            "n_private": 0,
            "n_skipped": 0,
        },
    )
    # Local aliases: these run once per harvested record, millions of
    # times in a large crawl.
    (
        edge_a,
        edge_b,
        edge_day,
        lib_user,
        lib_appid,
        lib_total,
        lib_twoweek,
        member_user,
        member_group,
    ) = (state[name] for name in _STASH_COLUMNS)

    def requests(steamid: int) -> tuple:
        # A private profile fails the first call, and the window stops
        # there: the other two are never sent, as in a lockstep loop.
        return (
            ("/ISteamUser/GetFriendList/v1", {"steamid": steamid}),
            ("/IPlayerService/GetOwnedGames/v1", {"steamid": steamid}),
            ("/ISteamUser/GetUserGroupList/v1", {"steamid": steamid}),
        )

    def harvest(position: int, steamid: int, payloads: list[dict]) -> None:
        friends, games, groups = payloads
        for record in friends["friendslist"]["friends"]:
            other = int(record["steamid"])
            if other <= steamid:
                continue  # keep each undirected edge once (u < v)
            since = record.get("friend_since", 0)
            edge_a.append(steamid)
            edge_b.append(other)
            edge_day.append(unix_to_day(since) if since > 0 else -1)
        for game in games["response"].get("games", []):
            lib_user.append(position)
            lib_appid.append(game["appid"])
            lib_total.append(game.get("playtime_forever", 0))
            lib_twoweek.append(game.get("playtime_2weeks", 0))
        for group in groups["response"].get("groups", []):
            member_user.append(position)
            member_group.append(group["gid"] - GROUP_ID_BASE)

    def on_skip(error: Exception) -> None:
        if isinstance(error, PrivateProfileError):
            state["n_private"] += 1
            if session.obs is not None:
                session.obs.counter(
                    "crawler_private_profiles",
                    "Accounts whose detail endpoints were private",
                ).inc()
        else:
            state["n_skipped"] += 1

    run_phase(
        session,
        checkpoint,
        PHASE,
        np.asarray(steamids, dtype=np.int64).tolist(),
        requests,
        harvest,
        state=state,
        every=CHECKPOINT_EVERY,
        skip_failed=skip_failed,
        non_event=PrivateProfileError,
        on_skip=on_skip,
    )

    return DetailCrawl(
        edge_a=np.array(edge_a, dtype=np.int64),
        edge_b=np.array(edge_b, dtype=np.int64),
        edge_day=np.array(edge_day, dtype=np.int32),
        lib_user=np.array(lib_user, dtype=np.int64),
        lib_appid=np.array(lib_appid, dtype=np.int64),
        lib_total_min=np.array(lib_total, dtype=np.int64),
        lib_twoweek_min=np.array(lib_twoweek, dtype=np.int32),
        member_user=np.array(member_user, dtype=np.int64),
        member_group=np.array(member_group, dtype=np.int64),
        n_private=state["n_private"],
        n_skipped=state["n_skipped"],
    )
