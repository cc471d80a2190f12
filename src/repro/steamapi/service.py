"""The simulated Steam Web API service.

Endpoints mirror the 2013 API surface the paper crawled; responses are
JSON-shaped dicts.  A :class:`SteamApiService` wraps a
:class:`repro.store.dataset.SteamDataset` (usually a generated world's)
and serves it with per-key token-bucket rate limiting.
"""

from __future__ import annotations

import datetime as dt
from typing import Callable

import numpy as np

from repro import constants
from repro.steamapi.errors import (
    BadRequestError,
    NotFoundError,
    PrivateProfileError,
    RateLimitedError,
    UnauthorizedError,
)
from repro.steamapi.models import GROUP_ID_BASE
from repro.steamapi.ratelimit import TokenBucket
from repro.store.dataset import SteamDataset

__all__ = ["SteamApiService", "DEFAULT_API_KEY"]

DEFAULT_API_KEY = "REPRO-DEFAULT-KEY"

#: Max SteamIDs accepted by GetPlayerSummaries, as documented by Valve.
MAX_SUMMARY_BATCH = 100

_UNIX_LAUNCH = int(
    dt.datetime(
        constants.STEAM_LAUNCH.year,
        constants.STEAM_LAUNCH.month,
        constants.STEAM_LAUNCH.day,
        tzinfo=dt.timezone.utc,
    ).timestamp()
)


class SteamApiService:
    """Serve a dataset through Steam Web API semantics."""

    def __init__(
        self,
        dataset: SteamDataset,
        rate_per_second: float = 100_000.0,
        burst: float = 200_000.0,
        clock: Callable[[], float] | None = None,
        require_key: bool = True,
        private_rate: float = 0.0,
        private_seed: int = 0,
        obs=None,
    ) -> None:
        """``private_rate`` marks that share of profiles private: their
        summaries still resolve, but the per-user detail endpoints refuse
        — the state of the modern Steam API, and the reason the paper's
        2013 crawl cannot be repeated."""
        self.dataset = dataset
        n = dataset.n_users
        if private_rate > 0:
            private_rng = np.random.default_rng(private_seed)
            self.private_mask = private_rng.random(n) < private_rate
        else:
            self.private_mask = np.zeros(n, dtype=bool)
        self._rate = rate_per_second
        self._burst = burst
        self._clock = clock
        self.require_key = require_key
        self._buckets: dict[str, TokenBucket] = {}
        self.register_key(DEFAULT_API_KEY)
        # Request accounting (per endpoint), for throughput benchmarks.
        self.request_counts: dict[str, int] = {}
        # Optional server-side observability (see repro.obs).
        if obs is not None:
            self._m_served = obs.registry.counter(
                "steamapi_server_requests",
                "Requests served, by endpoint",
                ("endpoint",),
            )
            self._m_rejected = obs.registry.counter(
                "steamapi_server_rate_limited",
                "Requests rejected by the per-key rate limiter",
            )
        else:
            self._m_served = None
            self._m_rejected = None

        offsets = dataset.accounts.id_offset
        if np.any(np.diff(offsets) <= 0):
            raise ValueError("account id offsets must be strictly increasing")
        self._offsets = offsets
        self._adj, self._adj_edge = dataset.friends.adjacency()
        self._user_groups = dataset.groups.user_memberships()
        appids = dataset.catalog.appid
        self._app_order = np.argsort(appids)
        self._appids_sorted = appids[self._app_order]
        self._group_sizes = dataset.groups.sizes()
        #: Lazily-built per-product genre/category payload fragments for
        #: ``appdetails`` (see :meth:`_appdetails_fragments`).  Built on
        #: first use so non-crawl consumers never pay for it.
        self._app_genres: list[list[dict]] | None = None
        self._app_categories: list[list[dict]] | None = None
        #: Lazily-built per-product achievement payload lists (see
        #: :meth:`_achievement_fragments`) — same sharing contract.
        self._ach_payloads: list[list[dict]] | None = None

    def _appdetails_fragments(self) -> None:
        """Precompute the genre and category lists for every product.

        The naive per-request path re-derived each product's genres by
        scanning a whole-catalog ``has_genre`` mask per genre name —
        O(products x genres) array work *per request*.  One vectorized
        pass builds the lists up front; the little dicts are shared
        between products (responses are serialized or read, never
        mutated), so per-request work drops to a list lookup.
        """
        cat = self.dataset.catalog
        names = cat.genre_names
        genre_dicts = [
            {"id": str(i), "description": name}
            for i, name in enumerate(names)
        ]
        shifts = np.arange(len(names), dtype=np.uint64)
        bits = (
            np.asarray(cat.genre_mask, dtype=np.uint64)[:, None]
            >> shifts[None, :]
        ) & np.uint64(1)
        self._app_genres = [
            [genre_dicts[g] for g in row.nonzero()[0]] for row in bits
        ]
        multi = [{"id": 1, "description": "Multi-player"}]
        single = [{"id": 2, "description": "Single-player"}]
        self._app_categories = [
            multi if flag else single for flag in cat.multiplayer.tolist()
        ]

    def _achievement_fragments(self) -> None:
        """Precompute every product's achievement-percentage payload.

        The rates are immutable dataset columns, but the naive path
        rebuilt the dict list (with a ``round`` per rate) on every
        request.  ``ACH_<i>`` name strings are shared across products —
        achievement *i* has the same name everywhere.
        """
        ach = self.dataset.achievements
        counts = ach.count.tolist()
        names = [f"ACH_{i}" for i in range(max(counts, default=0))]
        rates = ach.rates.tolist()
        payloads = []
        pos = 0
        for n in counts:
            payloads.append(
                [
                    {"name": names[i], "percent": round(r * 100.0, 4)}
                    for i, r in enumerate(rates[pos : pos + n])
                ]
            )
            pos += n
        self._ach_payloads = payloads

    # -- setup ---------------------------------------------------------------

    @classmethod
    def from_world(cls, world, **kwargs) -> "SteamApiService":
        return cls(world.dataset, **kwargs)

    def register_key(
        self, key: str, rate: float | None = None, burst: float | None = None
    ) -> None:
        """Issue an API key with its own token bucket."""
        self._buckets[key] = TokenBucket(
            rate or self._rate, burst or self._burst, clock=self._clock
        )

    # -- shared plumbing ------------------------------------------------------

    def _charge(self, key: str | None, endpoint: str) -> None:
        if self.require_key:
            if key is None or key not in self._buckets:
                raise UnauthorizedError("missing or unknown API key")
            bucket = self._buckets[key]
            if not bucket.try_acquire():
                if self._m_rejected is not None:
                    self._m_rejected.inc()
                raise RateLimitedError(
                    "rate limit exceeded", retry_after=bucket.wait_time()
                )
        self.request_counts[endpoint] = self.request_counts.get(endpoint, 0) + 1
        if self._m_served is not None:
            self._m_served.inc(endpoint=endpoint)

    def _user_index(self, steamid: int) -> int:
        offset = int(steamid) - constants.STEAMID_BASE
        if offset < 0:
            raise BadRequestError(f"not a SteamID64: {steamid}")
        # Bound-method searchsorted skips the np.searchsorted dispatch
        # wrapper — this runs once per detail-phase request.
        pos = int(self._offsets.searchsorted(offset))
        if pos >= len(self._offsets) or self._offsets[pos] != offset:
            raise NotFoundError(f"no account for SteamID {steamid}")
        return pos

    def _require_public(self, user: int) -> None:
        if self.private_mask[user]:
            raise PrivateProfileError(
                "profile is private; details unavailable"
            )

    def _product_index(self, appid: int) -> int:
        pos = int(self._appids_sorted.searchsorted(appid))
        if (
            pos >= len(self._appids_sorted)
            or self._appids_sorted[pos] != appid
        ):
            raise NotFoundError(f"no app {appid}")
        return int(self._app_order[pos])

    # -- endpoints ------------------------------------------------------------

    def get_player_summaries(
        self, key: str | None, steamids: list[int]
    ) -> dict:
        """ISteamUser/GetPlayerSummaries (batch of up to 100 ids).

        Unknown SteamIDs are silently omitted from the response, exactly
        like the real endpoint — this is how the paper's ID-space sweep
        discovered the valid-account density profile.
        """
        self._charge(key, "GetPlayerSummaries")
        if len(steamids) > MAX_SUMMARY_BATCH:
            raise BadRequestError(
                f"at most {MAX_SUMMARY_BATCH} steamids per call"
            )
        acc = self.dataset.accounts
        # One searchsorted over the whole batch instead of a binary
        # search per id — this endpoint serves the phase-1 ID sweep,
        # which probes the entire (mostly-invalid) ID space.
        ids = np.asarray([int(s) for s in steamids], dtype=np.int64)
        offs = ids - constants.STEAMID_BASE
        if np.any(offs < 0):
            bad = ids[int(np.argmax(offs < 0))]
            raise BadRequestError(f"not a SteamID64: {bad}")
        if len(self._offsets) == 0:
            return {"response": {"players": []}}
        pos = np.minimum(
            self._offsets.searchsorted(offs), len(self._offsets) - 1
        )
        valid = self._offsets[pos] == offs
        users = pos[valid]
        players = []
        for steamid, user, created, country, city in zip(
            ids[valid].tolist(),
            users.tolist(),
            acc.created_day[users].tolist(),
            acc.country[users].tolist(),
            acc.city[users].tolist(),
        ):
            entry: dict = {
                "steamid": str(steamid),
                "timecreated": _UNIX_LAUNCH + created * 86400,
            }
            if country >= 0:
                entry["loccountrycode"] = acc.country_names[country]
            if city >= 0:
                entry["loccityid"] = city
            players.append(entry)
        return {"response": {"players": players}}

    def get_friend_list(self, key: str | None, steamid: int) -> dict:
        """ISteamUser/GetFriendList (single id)."""
        self._charge(key, "GetFriendList")
        user = self._user_index(int(steamid))
        self._require_public(user)
        sl = self._adj.row_slice(user)
        others = self._adj.indices[sl]
        days = self.dataset.friends.day[self._adj_edge[sl]]
        epoch = self.dataset.meta.friend_ts_epoch_day
        # Vectorize the per-edge arithmetic, then drop to plain Python
        # ints via tolist() — far cheaper than np-scalar indexing in the
        # loop.  Pre-epoch friendships report friend_since = 0, as on
        # Steam.
        sids = (
            np.asarray(self._offsets[others], dtype=np.int64)
            + constants.STEAMID_BASE
        ).tolist()
        since = np.where(
            days >= epoch,
            days.astype(np.int64) * 86400 + _UNIX_LAUNCH,
            0,
        ).tolist()
        friends = [
            {
                "steamid": str(sid),
                "relationship": "friend",
                "friend_since": ts,
            }
            for sid, ts in zip(sids, since)
        ]
        return {"friendslist": {"friends": friends}}

    def get_owned_games(self, key: str | None, steamid: int) -> dict:
        """IPlayerService/GetOwnedGames (single id)."""
        self._charge(key, "GetOwnedGames")
        user = self._user_index(int(steamid))
        self._require_public(user)
        lib = self.dataset.library
        sl = lib.owned.row_slice(user)
        appids = self.dataset.catalog.appid[lib.owned.indices[sl]].tolist()
        totals = lib.total_min[sl].tolist()
        twoweeks = lib.twoweek_min[sl].tolist()
        games = []
        for appid, total, twoweek in zip(appids, totals, twoweeks):
            entry = {"appid": appid, "playtime_forever": total}
            if twoweek > 0:
                entry["playtime_2weeks"] = twoweek
            games.append(entry)
        return {"response": {"game_count": len(games), "games": games}}

    def get_user_group_list(self, key: str | None, steamid: int) -> dict:
        """ISteamUser/GetUserGroupList (single id)."""
        self._charge(key, "GetUserGroupList")
        user = self._user_index(int(steamid))
        self._require_public(user)
        groups = [
            {"gid": GROUP_ID_BASE + g}
            for g in self._user_groups.row(user).tolist()
        ]
        return {"response": {"success": True, "groups": groups}}

    def get_app_list(self, key: str | None) -> dict:
        """ISteamApps/GetAppList — the unpublicized full-catalog endpoint."""
        self._charge(key, "GetAppList")
        from repro.simworld.names import game_name

        apps = [
            {"appid": int(appid), "name": game_name(int(appid))}
            for appid in self.dataset.catalog.appid
        ]
        return {"applist": {"apps": apps}}

    def get_global_achievement_percentages(
        self, key: str | None, gameid: int
    ) -> dict:
        """ISteamUserStats/GetGlobalAchievementPercentagesForApp."""
        self._charge(key, "GetGlobalAchievementPercentages")
        product = self._product_index(int(gameid))
        if self.dataset.achievements is None:
            raise NotFoundError("achievement data unavailable")
        if self._ach_payloads is None:
            self._achievement_fragments()
        return {
            "achievementpercentages": {
                "achievements": self._ach_payloads[product]
            }
        }

    def appdetails(self, key: str | None, appid: int) -> dict:
        """Storefront appdetails (no API key on the real endpoint, but the
        same politeness budget applies)."""
        self._charge(key, "appdetails")
        product = self._product_index(int(appid))
        cat = self.dataset.catalog
        if self._app_genres is None:
            self._appdetails_fragments()
        genres = self._app_genres[product]
        categories = self._app_categories[product]
        from repro.simworld.names import game_name

        body = {
            "type": "game" if bool(cat.is_game[product]) else "dlc",
            "name": game_name(int(appid)),
            "steam_appid": int(appid),
            "genres": genres,
            "categories": categories,
            "price_overview": {
                "currency": "USD",
                "final": int(cat.price_cents[product]),
            },
            "metacritic": {"score": int(cat.metacritic[product])},
            "release_date": {"day_index": int(cat.release_day[product])},
        }
        return {str(int(appid)): {"success": True, "data": body}}

    def group_profile(self, key: str | None, gid: int) -> dict:
        """Community group page "scrape".

        The real API exposes no group metadata; the paper categorized the
        top 250 groups by manually inspecting their community pages.
        This endpoint simulates that inspection step.
        """
        self._charge(key, "group_profile")
        index = int(gid) - GROUP_ID_BASE
        groups = self.dataset.groups
        if index < 0 or index >= groups.n_groups:
            raise NotFoundError(f"no group {gid}")
        focus = int(groups.focus_game[index])
        payload = {
            "gid": int(gid),
            "type": int(groups.group_type[index]),
            "member_count": int(self._group_sizes[index]),
        }
        if focus >= 0:
            payload["focus_appid"] = int(self.dataset.catalog.appid[focus])
        return {"group": payload}

    # -- dispatch (shared by both transports) ---------------------------------

    def dispatch(self, path: str, params: dict) -> dict:
        """Route a request path to its endpoint (used by the transports)."""
        key = params.get("key")
        if path == "/ISteamUser/GetPlayerSummaries/v2":
            raw = params.get("steamids", "")
            if isinstance(raw, str):
                ids = [int(s) for s in raw.split(",") if s]
            else:
                ids = [int(s) for s in raw]
            return self.get_player_summaries(key, ids)
        if path == "/ISteamUser/GetFriendList/v1":
            return self.get_friend_list(key, int(params["steamid"]))
        if path == "/IPlayerService/GetOwnedGames/v1":
            return self.get_owned_games(key, int(params["steamid"]))
        if path == "/ISteamUser/GetUserGroupList/v1":
            return self.get_user_group_list(key, int(params["steamid"]))
        if path == "/ISteamApps/GetAppList/v2":
            return self.get_app_list(key)
        if path == "/ISteamUserStats/GetGlobalAchievementPercentagesForApp/v2":
            return self.get_global_achievement_percentages(
                key, int(params["gameid"])
            )
        if path == "/appdetails":
            return self.appdetails(key, int(params["appids"]))
        if path == "/community/group":
            return self.group_profile(key, int(params["gid"]))
        raise NotFoundError(f"unknown endpoint {path}")
