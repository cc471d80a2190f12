"""AnalyticsService routing, parameter validation, response caching,
and the HTTP integration on top of ``serve_dispatch``."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import Obs
from repro.obs.clock import FakeClock
from repro.serving import AnalyticsService, serve_analytics
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.steamapi.errors import BadRequestError, NotFoundError


def _get(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return response.status, json.loads(response.read())


def _get_error(base: str, path: str):
    try:
        urllib.request.urlopen(base + path, timeout=10)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())
    raise AssertionError(f"{path} unexpectedly succeeded")


class TestRouting:
    def test_route_of_collapses_ids(self, serving_service):
        assert (
            serving_service.route_of("/users/76561197960265728/summary")
            == "/users/<id>/summary"
        )
        assert serving_service.route_of("/apps/440/stats") == "/apps/<id>/stats"
        assert (
            serving_service.route_of("/distributions/friends/percentile")
            == "/distributions/<attr>/percentile"
        )
        assert serving_service.route_of("/not/a/route") == "<unmatched>"

    def test_unknown_route_404(self, serving_service):
        with pytest.raises(NotFoundError):
            serving_service.dispatch("/not/a/route", {})

    def test_missing_q_400(self, serving_service):
        with pytest.raises(BadRequestError, match="missing required"):
            serving_service.dispatch(
                "/distributions/friends/percentile", {}
            )

    def test_non_numeric_q_400(self, serving_service):
        with pytest.raises(BadRequestError, match="must be a number"):
            serving_service.dispatch(
                "/distributions/friends/percentile", {"q": "fifty"}
            )

    def test_infinite_q_400(self, serving_service):
        with pytest.raises(BadRequestError, match="finite"):
            serving_service.dispatch(
                "/distributions/friends/percentile", {"q": "inf"}
            )

    def test_non_integer_limit_400(self, serving_service, small_dataset):
        steamid = int(small_dataset.accounts.steamids()[0])
        with pytest.raises(BadRequestError, match="integer"):
            serving_service.dispatch(
                f"/users/{steamid}/neighborhood", {"limit": "many"}
            )


class TestResponseCache:
    def test_repeat_query_hits_cache(self, serving_service):
        path = "/distributions/friends/percentile"
        first = serving_service.dispatch(path, {"q": "90"})
        second = serving_service.dispatch(path, {"q": "90"})
        assert first == second
        stats = serving_service.cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_distinct_params_are_distinct_entries(self, serving_service):
        path = "/distributions/friends/percentile"
        serving_service.dispatch(path, {"q": "10"})
        serving_service.dispatch(path, {"q": "20"})
        assert serving_service.cache.stats()["misses"] == 2

    def test_user_tags_match_their_derivation(
        self, serving_service, small_dataset
    ):
        from repro.core.percentiles import ATTRIBUTES
        from repro.serving.api import (
            _tags_user_neighborhood,
            _tags_user_summary,
        )

        for steamid in small_dataset.accounts.steamids()[:20]:
            match = {"steamid": str(steamid)}
            summary = serving_service.dispatch(
                f"/users/{steamid}/summary", {}
            )
            assert _tags_user_summary(match, summary) == frozenset(
                {f"user:{int(steamid)}"} | {f"attr:{a}" for a in ATTRIBUTES}
            )
            neighborhood = serving_service.dispatch(
                f"/users/{steamid}/neighborhood", {"limit": "10"}
            )
            friends = neighborhood["friends"]
            assert _tags_user_neighborhood(
                match, neighborhood
            ) == frozenset(
                {f"user:{int(steamid)}"}
                | {f"user:{int(f['steamid'])}" for f in friends}
            )

    def test_healthz_is_never_cached(self, serving_service):
        serving_service.dispatch("/healthz", {})
        serving_service.dispatch("/healthz", {})
        stats = serving_service.cache.stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 0

    def test_healthz_reports_cache_stats(self, serving_service):
        serving_service.dispatch(
            "/distributions/friends/percentile", {"q": "50"}
        )
        payload = serving_service.dispatch("/healthz", {})
        assert payload["cache"]["misses"] == 1


class TestBreakerRecovery:
    def test_failed_probe_does_not_wedge_the_route(
        self, serving_store, small_dataset
    ):
        """Regression: after a breaker trip, a half-open probe that
        404s must release the probe slot — one bad probe must not turn
        the route into endless breaker 429s."""
        clock = FakeClock()
        admission = AdmissionController(
            AdmissionConfig(breaker_threshold=2, breaker_cooldown=10.0),
            clock=clock,
        )
        service = AnalyticsService(serving_store, admission=admission)
        route = "/users/<id>/summary"
        admission.record_timeout(route)
        admission.record_timeout(route)
        assert admission.breaker_states()[route] == "open"
        clock.advance(10.1)
        # The half-open probe dies on a 404 (unknown steamid).
        steamids = small_dataset.accounts.steamids()
        unknown = int(steamids[-1]) + 1000
        with pytest.raises(NotFoundError):
            service.dispatch(f"/users/{unknown}/summary", {})
        # The route recovers: the next request is admitted as a fresh
        # probe, succeeds, and closes the breaker.
        steamid = int(steamids[0])
        payload = service.dispatch(f"/users/{steamid}/summary", {})
        assert payload["steamid"] == steamid
        assert admission.breaker_states()[route] == "closed"


class TestHttp:
    @pytest.fixture()
    def server(self, serving_store):
        obs = Obs()
        service = AnalyticsService(serving_store, obs=obs)
        server = serve_analytics(service, obs=obs, access_log=False)
        yield server
        server.close()

    def test_summary_roundtrip(self, server, small_dataset):
        steamid = int(small_dataset.accounts.steamids()[0])
        status, payload = _get(server.base_url, f"/users/{steamid}/summary")
        assert status == 200
        assert payload["steamid"] == steamid

    def test_error_statuses(self, server):
        code, body = _get_error(
            server.base_url, "/distributions/friends/percentile?q=101"
        )
        assert code == 400
        assert "in [0, 100]" in body["message"]
        code, body = _get_error(server.base_url, "/distributions/bogus/percentile?q=50")
        assert code == 404
        code, _ = _get_error(server.base_url, "/nope")
        assert code == 404

    def test_metrics_use_route_templates_not_raw_paths(
        self, server, small_dataset
    ):
        steamid = int(small_dataset.accounts.steamids()[0])
        _get(server.base_url, f"/users/{steamid}/summary")
        # The handler accounts a request after sending its response, so
        # an immediate scrape can beat the bookkeeping: poll briefly.
        deadline = time.monotonic() + 5.0
        text = ""
        while time.monotonic() < deadline:
            with urllib.request.urlopen(
                server.base_url + "/metrics", timeout=10
            ) as response:
                text = response.read().decode()
            if 'path="/users/<id>/summary"' in text:
                break
            time.sleep(0.02)
        assert 'path="/users/<id>/summary"' in text
        assert f"/users/{steamid}/summary" not in text
        assert "http_request_seconds" in text
