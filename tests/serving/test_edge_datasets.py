"""Degenerate-population regressions: empty and single-user datasets.

Before the percentile hardening, an empty engaged population reached
``np.quantile`` / ``searchsorted`` and surfaced as ``IndexError`` or
``ZeroDivisionError`` — a 500 at the HTTP layer.  These tests pin the
typed-4xx behavior end to end.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import constants
from repro.core.distributions import classify_row
from repro.core.percentiles import ATTRIBUTES
from repro.serving import AnalyticsStore, serve_analytics
from repro.steamapi.errors import ApiError, BadRequestError, NotFoundError

from tests.serving.conftest import make_tiny_dataset


@pytest.fixture(scope="module")
def empty_store() -> AnalyticsStore:
    return AnalyticsStore.build(make_tiny_dataset(0))


@pytest.fixture(scope="module")
def single_store() -> AnalyticsStore:
    # One user owning one game: 120 lifetime minutes, 30 recent.
    return AnalyticsStore.build(
        make_tiny_dataset(1, owned=((1, 120, 30),))
    )


class TestEmptyDataset:
    def test_build_succeeds(self, empty_store):
        assert empty_store.dataset.n_users == 0
        for name in ATTRIBUTES:
            assert empty_store.indexes[name].population == 0

    def test_percentile_is_typed_404_not_crash(self, empty_store):
        for name in ATTRIBUTES:
            with pytest.raises(NotFoundError, match="no engaged users"):
                empty_store.distribution_percentile(name, 50.0)

    def test_rank_is_typed_404(self, empty_store):
        with pytest.raises(NotFoundError):
            empty_store.distribution_rank("friends", 1.0)

    def test_tailfit_is_typed_404(self, empty_store):
        with pytest.raises(NotFoundError, match="too few engaged users"):
            empty_store.tailfit_payload("friends")

    def test_any_user_is_404(self, empty_store):
        with pytest.raises(NotFoundError):
            empty_store.user_summary(constants.STEAMID_BASE)

    def test_all_errors_are_api_errors(self, empty_store):
        # The contract the HTTP layer relies on: nothing but ApiError
        # (→ 4xx JSON) escapes a degenerate population.
        probes = (
            lambda: empty_store.distribution_percentile("friends", 50.0),
            lambda: empty_store.distribution_rank("friends", 0.5),
            lambda: empty_store.tailfit_payload("owned_games"),
            lambda: empty_store.user_summary(constants.STEAMID_BASE + 5),
            lambda: empty_store.app_stats_payload(123456),
        )
        for probe in probes:
            with pytest.raises(ApiError):
                probe()


class TestSingleUserDataset:
    def test_summary_works(self, single_store):
        steamid = constants.STEAMID_BASE
        payload = single_store.user_summary(steamid)
        assert payload["attributes"]["owned_games"]["value"] == 1.0
        assert payload["attributes"]["owned_games"]["percentile"] == 100.0
        assert payload["attributes"]["friends"]["percentile"] is None

    def test_percentile_of_population_of_one(self, single_store):
        payload = single_store.distribution_percentile("owned_games", 50.0)
        assert payload["value"] == 1.0
        assert payload["population"] == 1

    def test_endpoints_of_range(self, single_store):
        for q in (0.0, 100.0):
            payload = single_store.distribution_percentile(
                "total_playtime_hours", q
            )
            assert payload["value"] == 2.0  # 120 minutes

    def test_bad_q_still_400(self, single_store):
        for q in (-1.0, 101.0, float("nan")):
            with pytest.raises(BadRequestError):
                single_store.distribution_percentile("owned_games", q)

    def test_empty_attribute_of_nonempty_dataset_404(self, single_store):
        # The one user has no group memberships: population 0 for that
        # attribute even though the dataset itself is non-empty.
        with pytest.raises(NotFoundError):
            single_store.distribution_percentile("group_memberships", 50.0)


class TestSmallPopulation:
    def test_tailfit_below_table4_threshold_is_typed_404(self):
        # 50 users with distinct playtimes: enough to fit a tail, but
        # under the 100 points Table 4 classifies a row from.
        store = AnalyticsStore.build(
            make_tiny_dataset(
                50, owned=tuple((1, 60 * (i + 1), 0) for i in range(50))
            )
        )
        assert store.indexes["total_playtime_hours"].population == 50
        with pytest.raises(NotFoundError, match=r"too few .*\(< 100\)"):
            store.tailfit_payload("total_playtime_hours")


class TestConstantSample:
    """150 users who each played exactly one hour: no tail shape."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return make_tiny_dataset(150, owned=((1, 60, 0),) * 150)

    def test_table4_drops_the_row(self, dataset):
        assert classify_row(dataset, "total playtime") is None

    def test_tailfit_is_typed_404_naming_the_reason(self, dataset):
        store = AnalyticsStore.build(dataset)
        assert store.indexes["total_playtime_hours"].population == 150
        with pytest.raises(NotFoundError, match="one distinct engaged value"):
            store.tailfit_payload("total_playtime_hours")


class TestDegenerateOverHttp:
    def test_single_user_server_maps_errors(self, single_store):
        server = serve_analytics(single_store, access_log=False)
        try:
            base = server.base_url
            with urllib.request.urlopen(
                base + "/distributions/owned_games/percentile?q=50",
                timeout=10,
            ) as response:
                assert response.status == 200
                assert json.loads(response.read())["value"] == 1.0
            for path, expected in (
                ("/distributions/owned_games/percentile?q=101", 400),
                ("/distributions/owned_games/percentile?q=nan", 400),
                ("/distributions/group_memberships/percentile?q=50", 404),
                ("/tailfit/friends", 404),
                (f"/users/{constants.STEAMID_BASE + 99}/summary", 404),
            ):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(base + path, timeout=10)
                assert excinfo.value.code == expected, path
        finally:
            server.close()
