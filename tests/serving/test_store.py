"""AnalyticsStore unit tests against the shared small world."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import constants
from repro.core.percentiles import ATTRIBUTES, attribute_values
from repro.steamapi.errors import BadRequestError, NotFoundError


class TestBuild:
    def test_all_stages_present(self, serving_store):
        assert set(serving_store.indexes) == set(ATTRIBUTES)
        assert set(serving_store.tailfits) == set(ATTRIBUTES)
        assert serving_store.build_run is not None
        assert serving_store.build_run.n_stages == 2 * len(ATTRIBUTES) + 6

    def test_indexes_sorted_and_nonzero(self, serving_store, small_dataset):
        for name in ATTRIBUTES:
            index = serving_store.indexes[name]
            assert np.all(np.diff(index.sorted_values) >= 0)
            assert np.all(index.sorted_values > 0)
            assert index.n_users == small_dataset.n_users

    def test_fingerprint_matches_dataset(self, serving_store, small_dataset):
        assert serving_store.fingerprint == small_dataset.fingerprint()

    def test_build_leaves_scipy_stats_unloaded(self):
        """``scipy.stats`` costs ~20 MB of resident memory; the serving
        read path (tail fits included) must not pull it in."""
        script = (
            "import sys, repro;"
            "from repro.serving import AnalyticsStore;"
            "world = repro.SteamWorld.generate("
            "repro.WorldConfig(n_users=1000, seed=5));"
            "AnalyticsStore.build(world.dataset, max_tail=500);"
            "print('scipy.stats' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=os.environ.copy(),
            check=True,
        ).stdout
        assert out.strip() == "False"


class TestUserQueries:
    def test_summary_fields(self, serving_store, small_dataset):
        steamid = int(small_dataset.accounts.steamids()[7])
        payload = serving_store.user_summary(steamid)
        assert payload["steamid"] == steamid
        assert set(payload["attributes"]) == set(ATTRIBUTES)
        friends = payload["attributes"]["friends"]
        assert friends["value"] == float(
            small_dataset.friend_counts()[7]
        )

    def test_summary_percentile_matches_population(
        self, serving_store, small_dataset
    ):
        values = attribute_values(small_dataset)["friends"]
        idx = int(np.argmax(values))  # the best-connected user
        steamid = int(small_dataset.accounts.steamids()[idx])
        payload = serving_store.user_summary(steamid)
        assert payload["attributes"]["friends"]["percentile"] == 100.0

    def test_inactive_attribute_has_no_percentile(
        self, serving_store, small_dataset
    ):
        values = attribute_values(small_dataset)["owned_games"]
        zeros = np.flatnonzero(values == 0)
        assert len(zeros), "expected some game-less users in the small world"
        steamid = int(small_dataset.accounts.steamids()[zeros[0]])
        payload = serving_store.user_summary(steamid)
        assert payload["attributes"]["owned_games"]["percentile"] is None

    def test_unknown_user_404(self, serving_store):
        with pytest.raises(NotFoundError):
            serving_store.user_summary(constants.STEAMID_BASE + 10**9)

    def test_malformed_steamid_400(self, serving_store):
        with pytest.raises(BadRequestError):
            serving_store.user_summary(7)

    def test_neighborhood_matches_adjacency(
        self, serving_store, small_dataset
    ):
        degrees = small_dataset.friend_counts()
        idx = int(np.argmax(degrees))
        steamid = int(small_dataset.accounts.steamids()[idx])
        payload = serving_store.user_neighborhood(steamid, limit=5)
        assert payload["degree"] == int(degrees[idx])
        assert payload["returned"] == min(5, int(degrees[idx]))
        adj, _ = small_dataset.friends.adjacency()
        expected = small_dataset.accounts.steamids()[adj.row(idx)[:5]]
        assert [f["steamid"] for f in payload["friends"]] == list(expected)

    def test_neighborhood_limit_validated(self, serving_store, small_dataset):
        steamid = int(small_dataset.accounts.steamids()[0])
        for bad in (0, -1, 1001):
            with pytest.raises(BadRequestError):
                serving_store.user_neighborhood(steamid, limit=bad)


class TestAppQueries:
    def test_stats_match_library_aggregates(
        self, serving_store, small_dataset
    ):
        library = small_dataset.library
        n = small_dataset.n_products
        owners = library.app_owner_counts(n)
        idx = int(np.argmax(owners))  # the most-owned product
        appid = int(small_dataset.catalog.appid[idx])
        payload = serving_store.app_stats_payload(appid)
        assert payload["owners"] == int(owners[idx])
        assert payload["players"] == int(library.app_player_counts(n)[idx])
        assert payload["total_playtime_hours"] == round(
            float(library.app_total_min(n)[idx]) / 60.0, 2
        )
        assert payload["ownership_percentile"] == 100.0

    def test_unknown_app_404(self, serving_store):
        with pytest.raises(NotFoundError):
            serving_store.app_stats_payload(99_999_999)


class TestDistributionQueries:
    def test_percentile_matches_numpy_rank_inverse(self, serving_store):
        index = serving_store.indexes["friends"]
        payload = serving_store.distribution_percentile("friends", 50.0)
        assert payload["population"] == index.population
        # The returned value sits at (or just past) the median slot.
        rank = serving_store.distribution_rank("friends", payload["value"])
        assert rank["percentile"] >= 50.0

    def test_endpoints_of_range(self, serving_store):
        index = serving_store.indexes["friends"]
        low = serving_store.distribution_percentile("friends", 0.0)
        high = serving_store.distribution_percentile("friends", 100.0)
        assert low["value"] == float(index.sorted_values[0])
        assert high["value"] == float(index.sorted_values[-1])

    def test_unknown_attribute_404(self, serving_store):
        with pytest.raises(NotFoundError):
            serving_store.distribution_percentile("bogus", 50.0)
        with pytest.raises(NotFoundError):
            serving_store.distribution_rank("bogus", 1.0)

    @pytest.mark.parametrize("q", [-0.5, 100.5, float("nan")])
    def test_bad_q_is_typed_400(self, serving_store, q):
        with pytest.raises(BadRequestError):
            serving_store.distribution_percentile("friends", q)

    def test_nan_rank_probe_is_typed_400(self, serving_store):
        with pytest.raises(BadRequestError):
            serving_store.distribution_rank("friends", float("nan"))


class TestDerivedQueries:
    def test_tailfit_payload_shape(self, serving_store):
        payload = serving_store.tailfit_payload("owned_games")
        assert payload["attribute"] == "owned_games"
        assert set(payload["families"]) == {
            "power_law",
            "exponential",
            "lognormal",
            "truncated_power_law",
        }
        assert set(payload["comparisons"]) == {
            "pl_vs_exp",
            "pl_vs_ln",
            "tpl_vs_pl",
            "tpl_vs_ln",
        }

    def test_homophily_payload(self, serving_store):
        payload = serving_store.homophily_payload("market_value")
        assert payload["attribute"] == "market_value"
        assert payload["paper_rho"] == pytest.approx(0.77)
        assert payload["population"] > 0

    def test_unknown_homophily_attribute_404(self, serving_store):
        with pytest.raises(NotFoundError):
            serving_store.homophily_payload("bogus")

    def test_describe(self, serving_store, small_dataset):
        payload = serving_store.describe()
        assert payload["status"] == "ok"
        assert payload["n_users"] == small_dataset.n_users
        assert payload["fingerprint"] == small_dataset.fingerprint()
