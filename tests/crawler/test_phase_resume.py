"""Resume, skip and checkpoint cadence, phase by phase.

Every crawl phase runs through the same resumable loop, so each one
must show the same three behaviours: a crawl killed mid-phase resumes
to the harvest an uninterrupted run collects; under graceful
degradation a poisoned identifier is logged under the phase's own key;
and every checkpoint boundary is saved, whatever became of the item
just before it.  The phases are called directly on the small world, so
each case costs a fraction of a full crawl.
"""

import numpy as np
import pytest

from repro import constants
from repro.crawler.achievements import crawl_achievements
from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.details import crawl_details
from repro.crawler.profiles import sweep_profiles
from repro.crawler.retry import RetriesExhausted, RetryPolicy
from repro.crawler.runner import scrape_group_labels
from repro.crawler.session import CrawlSession
from repro.crawler.storefront import crawl_storefront
from repro.crawler.throttle import PolitePacer
from repro.delta.crawl import _refetch_profiles
from repro.obs import Obs
from repro.steamapi.errors import ApiError
from repro.steamapi.models import GROUP_ID_BASE
from repro.steamapi.service import SteamApiService
from repro.steamapi.transport import InProcessTransport

SUMMARIES = "/ISteamUser/GetPlayerSummaries/v2"


class Killed(Exception):
    """Stands in for a hard kill: no error triage runs, nothing is saved."""


class Wrecker:
    """Passes requests through until ``breaks(n, path, params)`` says no.

    Then it raises ``error()``: an :class:`ApiError` the retry policy
    exhausts, or :class:`Killed` to cut the run like ``kill -9``.
    """

    def __init__(self, inner, breaks, error=lambda: ApiError("down")):
        self.inner = inner
        self.breaks = breaks
        self.error = error
        self.calls = 0

    def request(self, path, params):
        self.calls += 1
        if self.breaks(self.calls, path, params):
            raise self.error()
        return self.inner.request(path, params)


@pytest.fixture(scope="module")
def service(small_world):
    return SteamApiService.from_world(small_world)


def _session(transport, obs=None):
    return CrawlSession(
        transport=transport,
        pacer=PolitePacer(1e9, sleeper=lambda s: None),
        retry=RetryPolicy(sleeper=lambda s: None, max_attempts=2),
        obs=obs,
    )


def _storefront(session, checkpoint, small_world):
    crawl = crawl_storefront(session, checkpoint=checkpoint)
    return crawl.details


def _achievements(session, checkpoint, small_world):
    appids = [int(a) for a in small_world.dataset.catalog.appid[:800]]
    crawl = crawl_achievements(session, appids, checkpoint=checkpoint)
    return {a: r.tolist() for a, r in crawl.rates_by_appid.items()}


def _groups(session, checkpoint, small_world):
    ds = small_world.dataset
    group_type = np.zeros(ds.groups.n_groups, dtype=np.int8)
    focus = np.full(ds.groups.n_groups, -1, dtype=np.int32)
    scrape_group_labels(
        session,
        group_type,
        focus,
        ds.groups.members.counts(),
        ds.catalog.appid.astype(np.int64),
        label_top_n=120,
        checkpoint=checkpoint,
    )
    return group_type.tolist(), focus.tolist()


def _delta_profiles(session, checkpoint, small_world):
    steamids = small_world.dataset.accounts.steamids()[:2_000]
    offsets, created, countries, cities = _refetch_profiles(
        session, steamids, checkpoint, skip_failed=False
    )
    return offsets.tolist(), created.tolist(), countries, cities.tolist()


#: phase -> (harvest function, request at which the backend dies).
KILLS = {
    "storefront": (_storefront, 3_000),
    "achievements": (_achievements, 400),
    "groups": (_groups, 60),
    "delta_profiles": (_delta_profiles, 10),
}


@pytest.mark.parametrize("phase", sorted(KILLS))
def test_kill_and_resume_matches_uninterrupted(
    phase, service, small_world, tmp_path
):
    run, fuse = KILLS[phase]
    clean_session = _session(InProcessTransport(service))
    clean = run(clean_session, None, small_world)

    path = tmp_path / "crawl.json"
    dying = Wrecker(InProcessTransport(service), lambda n, p, q: n > fuse)
    with pytest.raises(RetriesExhausted):
        run(_session(dying), CrawlCheckpoint.load(path), small_world)

    resumed_session = _session(InProcessTransport(service))
    resumed = run(resumed_session, CrawlCheckpoint.load(path), small_world)
    assert resumed == clean
    if phase in ("storefront", "achievements"):
        # A resumable phase picks up where it died, not from scratch.
        assert (
            resumed_session.requests_made
            <= clean_session.requests_made - fuse + 1
        )


def _poisoned(service, small_world):
    """phase -> (run with skip_failed, poisoned identifier, its test)."""
    ds = small_world.dataset
    steamids = ds.accounts.steamids()
    appids = [int(a) for a in ds.catalog.appid]
    top = np.argsort(-ds.groups.members.counts(), kind="stable")
    return {
        "profiles": (
            lambda s, c: sweep_profiles(
                s, checkpoint=c, skip_failed=True, max_offset=2_000
            ),
            1_000,
            lambda path, params: path == SUMMARIES
            and params["steamids"].startswith(
                f"{constants.STEAMID_BASE + 1_000},"
            ),
        ),
        "details": (
            lambda s, c: crawl_details(
                s, steamids[:50], checkpoint=c, skip_failed=True
            ),
            int(steamids[10]),
            lambda path, params: params.get("steamid") == int(steamids[10]),
        ),
        "storefront": (
            lambda s, c: crawl_storefront(s, checkpoint=c, skip_failed=True),
            appids[10],
            lambda path, params: params.get("appids") == appids[10],
        ),
        "achievements": (
            lambda s, c: crawl_achievements(
                s, appids[:50], checkpoint=c, skip_failed=True
            ),
            appids[10],
            lambda path, params: params.get("gameid") == appids[10],
        ),
        "groups": (
            lambda s, c: scrape_group_labels(
                s,
                np.zeros(ds.groups.n_groups, dtype=np.int8),
                np.full(ds.groups.n_groups, -1, dtype=np.int32),
                ds.groups.members.counts(),
                ds.catalog.appid.astype(np.int64),
                label_top_n=20,
                checkpoint=c,
                skip_failed=True,
            ),
            GROUP_ID_BASE + int(top[5]),
            lambda path, params: params.get("gid")
            == GROUP_ID_BASE + int(top[5]),
        ),
        "delta_profiles": (
            lambda s, c: _refetch_profiles(
                s, steamids[:500], c, skip_failed=True
            ),
            int(steamids[200]),
            lambda path, params: path == SUMMARIES
            and params["steamids"].startswith(f"{int(steamids[200])},"),
        ),
    }


@pytest.mark.parametrize(
    "phase",
    [
        "profiles",
        "details",
        "storefront",
        "achievements",
        "groups",
        "delta_profiles",
    ],
)
def test_skip_failed_records_under_the_phase_key(
    phase, service, small_world
):
    run, ident, poison = _poisoned(service, small_world)[phase]
    obs = Obs()
    checkpoint = CrawlCheckpoint()
    transport = Wrecker(
        InProcessTransport(service), lambda n, path, q: poison(path, q)
    )
    run(_session(transport, obs=obs), checkpoint)
    assert checkpoint.failures() == {phase: [ident]}
    skipped = obs.registry.get("crawler_skipped")
    assert skipped.value(phase=phase) == 1


#: phase -> (cursor field, phase call that resumes from that cursor).
MISSING_STASH = {
    "profiles": (
        "profile_cursor",
        lambda s, c, ds: sweep_profiles(
            s, checkpoint=c, stop_after_empty=2
        ),
    ),
    "details": (
        "detail_cursor",
        lambda s, c, ds: crawl_details(
            s, ds.accounts.steamids()[:3], checkpoint=c
        ),
    ),
    "storefront": (
        "storefront_cursor",
        lambda s, c, ds: crawl_storefront(s, checkpoint=c),
    ),
    "achievements": (
        "achievements_cursor",
        lambda s, c, ds: crawl_achievements(
            s, [int(a) for a in ds.catalog.appid[:3]], checkpoint=c
        ),
    ),
}


@pytest.mark.parametrize("phase", sorted(MISSING_STASH))
def test_cursor_without_stash_warns(phase, service, small_world):
    ds = small_world.dataset
    field, run = MISSING_STASH[phase]
    # Past every account (profiles) or at the last item: little to crawl.
    cursor = {
        "profile_cursor": int(ds.accounts.id_offset.max()) + 1_000,
        "storefront_cursor": ds.catalog.n_products - 1,
    }.get(field, 2)
    checkpoint = CrawlCheckpoint(**{field: cursor})
    with pytest.warns(RuntimeWarning, match="cursor but no stashed harvest"):
        run(_session(InProcessTransport(service)), checkpoint, ds)


class TestCadence:
    """Every checkpoint boundary is saved, even after a skipped item."""

    def test_private_account_on_a_boundary_saves(self, small_world, tmp_path):
        service = SteamApiService.from_world(
            small_world, private_rate=0.1, private_seed=5
        )
        base = constants.STEAMID_BASE
        offsets = service._offsets
        public = offsets[~service.private_mask] + base
        private = offsets[service.private_mask] + base
        # The account closing the first 2,000-account stretch is private.
        steamids = np.concatenate(
            [public[:1_999], private[:1], public[1_999:2_010]]
        )
        doomed = int(steamids[2_005])
        path = tmp_path / "crawl.json"
        transport = Wrecker(
            InProcessTransport(service),
            lambda n, p, params: params.get("steamid") == doomed,
            error=Killed,
        )
        with pytest.raises(Killed):
            crawl_details(
                _session(transport), steamids, CrawlCheckpoint.load(path)
            )
        saved = CrawlCheckpoint.load(path)
        assert saved.detail_cursor == 2_000
        assert saved.unstash("details")["n_private"] >= 1

    def test_skipped_window_on_a_boundary_saves(self, service, tmp_path):
        base = constants.STEAMID_BASE

        def breaks(n, path, params):
            first = int(params["steamids"].split(",")[0]) - base
            if first == 505 * 100:
                raise Killed()
            return first == 499 * 100  # the 500th window never answers

        path = tmp_path / "crawl.json"
        transport = Wrecker(InProcessTransport(service), breaks)
        with pytest.raises(Killed):
            sweep_profiles(
                _session(transport),
                stop_after_empty=1_000,
                checkpoint=CrawlCheckpoint.load(path),
                skip_failed=True,
            )
        saved = CrawlCheckpoint.load(path)
        assert saved.profile_cursor == 500 * 100
        assert saved.failures("profiles") == [499 * 100]
