"""The ``/metrics`` route and server-side request accounting."""

import http.client
import urllib.request
from urllib.parse import urlencode, urlparse

import pytest

from repro.steamapi.http_client import HttpTransport
from repro.steamapi.http_server import serve
from repro.steamapi.service import DEFAULT_API_KEY, SteamApiService


@pytest.fixture(scope="module")
def server(small_world):
    service = SteamApiService.from_world(small_world)
    with serve(service) as running:
        yield running


def _scrape(server) -> tuple[str, str]:
    with urllib.request.urlopen(server.base_url + "/metrics") as resp:
        return resp.read().decode("utf-8"), resp.headers["Content-Type"]


class TestMetricsRoute:
    def test_prometheus_exposition(self, server, small_world):
        sid = int(small_world.dataset.accounts.steamids()[0])
        query = urlencode({"key": DEFAULT_API_KEY, "steamids": str(sid)})
        # One keep-alive connection, as in test_error_statuses_labelled:
        # the request is accounted before the scrape is read.
        conn = http.client.HTTPConnection(
            urlparse(server.base_url).netloc, timeout=10
        )
        try:
            conn.request("GET", f"/ISteamUser/GetPlayerSummaries/v2?{query}")
            conn.getresponse().read()
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            text = response.read().decode("utf-8")
            content_type = response.getheader("Content-Type")
        finally:
            conn.close()
        assert content_type == "text/plain; version=0.0.4"
        assert "# TYPE http_requests counter" in text
        assert (
            'http_requests_total{path="/ISteamUser/GetPlayerSummaries/v2"'
            in text
        )
        assert "http_request_seconds_bucket" in text

    def test_scrape_counts_itself(self, server):
        first, _ = _scrape(server)
        second, _ = _scrape(server)
        # The second scrape sees the first one's accounting.
        assert 'http_requests_total{path="/metrics",status="200"}' in second

    def test_error_statuses_labelled(self, server):
        # One keep-alive connection: the handler accounts the 404 before
        # it reads the scrape, so the count is there to be scraped.
        conn = http.client.HTTPConnection(
            urlparse(server.base_url).netloc, timeout=10
        )
        try:
            conn.request("GET", "/unknown/endpoint")
            conn.getresponse().read()
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        assert 'path="/unknown/endpoint",status="404"' in text

    def test_server_requests_metric_when_service_instrumented(
        self, small_world
    ):
        from repro.obs import Obs

        obs = Obs()
        service = SteamApiService.from_world(small_world, obs=obs)
        with serve(service, obs=obs) as running:
            sid = int(small_world.dataset.accounts.steamids()[0])
            HttpTransport(running.base_url).request(
                "/ISteamUser/GetPlayerSummaries/v2",
                {"key": DEFAULT_API_KEY, "steamids": str(sid)},
            )
            text, _ = _scrape(running)
        assert (
            'steamapi_server_requests_total{endpoint="GetPlayerSummaries"} 1'
            in text
        )


class TestAccessLog:
    def test_silent_by_default(self, server, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="repro.steamapi.http"):
            _scrape(server)
        assert not caplog.records

    def test_logs_when_enabled(self, small_world, caplog):
        import logging
        import time

        service = SteamApiService.from_world(small_world)
        with serve(service, access_log=True) as running:
            with caplog.at_level(
                logging.INFO, logger="repro.steamapi.http"
            ):
                _scrape(running)
                # The handler logs after responding, on the server
                # thread — give it a beat to land.
                deadline = time.monotonic() + 2.0
                while not caplog.records and time.monotonic() < deadline:
                    time.sleep(0.01)
        messages = [r.getMessage() for r in caplog.records]
        assert any("GET /metrics -> 200" in m for m in messages)

    def test_access_log_carries_the_trace_id(self, caplog):
        import logging
        import time

        from repro.obs.trace_context import TRACE_HEADER
        from repro.steamapi.http_server import serve_dispatch

        with serve_dispatch(
            lambda path, params: {"ok": True}, access_log=True
        ) as running:
            with caplog.at_level(
                logging.INFO, logger="repro.steamapi.http"
            ):
                request = urllib.request.Request(
                    running.base_url + "/ping",
                    headers={TRACE_HEADER: "deadbeefcafe0123:5"},
                )
                urllib.request.urlopen(request).read()
                urllib.request.urlopen(running.base_url + "/ping").read()
                deadline = time.monotonic() + 2.0
                while len(caplog.records) < 2 and (
                    time.monotonic() < deadline
                ):
                    time.sleep(0.01)
        messages = [r.getMessage() for r in caplog.records]
        assert any(
            "GET /ping -> 200 trace=deadbeefcafe0123" in m
            for m in messages
        )
        # An untraced request still logs, with the "-" placeholder.
        assert any("GET /ping -> 200 trace=-" in m for m in messages)
