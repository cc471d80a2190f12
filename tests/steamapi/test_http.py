"""JSON-over-HTTP transport against a live localhost server."""

import http.client
import sys
import threading
import time

import numpy as np
import pytest

from repro.steamapi.errors import (
    NotFoundError,
    RateLimitedError,
    UnauthorizedError,
)
from repro.steamapi.http_client import HttpTransport
from repro.steamapi.http_server import HttpLimits, serve, serve_dispatch
from repro.steamapi.service import DEFAULT_API_KEY, SteamApiService


@pytest.fixture(scope="module")
def server(small_world):
    service = SteamApiService.from_world(small_world)
    service.register_key("tiny-budget", rate=1e-6, burst=1.0)
    with serve(service) as running:
        yield running


@pytest.fixture(scope="module")
def transport(server):
    return HttpTransport(server.base_url)


class TestHttpRoundTrip:
    def test_summaries_roundtrip(self, transport, small_world):
        sid = int(small_world.dataset.accounts.steamids()[0])
        payload = transport.request(
            "/ISteamUser/GetPlayerSummaries/v2",
            {"key": DEFAULT_API_KEY, "steamids": str(sid)},
        )
        assert payload["response"]["players"][0]["steamid"] == str(sid)

    def test_identical_to_in_process(self, transport, small_world):
        service = SteamApiService.from_world(small_world)
        sid = int(small_world.dataset.accounts.steamids()[5])
        params = {"key": DEFAULT_API_KEY, "steamid": sid}
        via_http = transport.request(
            "/IPlayerService/GetOwnedGames/v1", dict(params)
        )
        direct = service.dispatch(
            "/IPlayerService/GetOwnedGames/v1", dict(params)
        )
        assert via_http == direct

    def test_404_maps_to_typed_error(self, transport):
        with pytest.raises(NotFoundError):
            transport.request("/unknown/endpoint", {})

    def test_401_maps_to_typed_error(self, transport):
        with pytest.raises(UnauthorizedError):
            transport.request(
                "/ISteamApps/GetAppList/v2", {"key": "WRONG"}
            )

    def test_429_carries_retry_after(self, transport, small_world):
        sid = int(small_world.dataset.accounts.steamids()[0])
        transport.request(
            "/ISteamUser/GetFriendList/v1",
            {"key": "tiny-budget", "steamid": sid},
        )
        with pytest.raises(RateLimitedError) as info:
            transport.request(
                "/ISteamUser/GetFriendList/v1",
                {"key": "tiny-budget", "steamid": sid},
            )
        assert info.value.retry_after > 0

    def test_concurrent_requests(self, server, small_world):
        """The threading server handles parallel clients."""
        import concurrent.futures

        sids = small_world.dataset.accounts.steamids()[:16]

        def fetch(sid):
            transport = HttpTransport(server.base_url)
            return transport.request(
                "/ISteamUser/GetFriendList/v1",
                {"key": DEFAULT_API_KEY, "steamid": int(sid)},
            )

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = list(pool.map(fetch, sids))
        assert len(results) == 16
        assert all("friendslist" in r for r in results)

    def test_connection_refused_is_api_error(self):
        from repro.steamapi.errors import ApiError

        transport = HttpTransport("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ApiError):
            transport.request("/ISteamApps/GetAppList/v2", {"key": "x"})


def _count_connections(running) -> list:
    """Record every connection the server accepts from now on."""
    accepted: list = []
    handle = running.server.process_request_thread

    def counted(request, client_address):
        accepted.append(client_address)
        return handle(request, client_address)

    running.server.process_request_thread = counted
    return accepted


class TestPersistentConnections:
    """One transport keeps its connections alive across requests."""

    def test_full_crawl_runs_on_one_connection(self, small_world):
        from repro.crawler.runner import run_full_crawl
        from repro.steamapi.transport import InProcessTransport

        reference = run_full_crawl(
            InProcessTransport(SteamApiService.from_world(small_world))
        )
        with serve(SteamApiService.from_world(small_world)) as running:
            accepted = _count_connections(running)
            with HttpTransport(running.base_url) as transport:
                result = run_full_crawl(transport)
        assert result.requests_made == reference.requests_made
        assert result.dataset.fingerprint() == reference.dataset.fingerprint()
        assert len(accepted) == 1

    def test_connection_closed_while_idle_is_resent_once(self):
        dispatched: list[str] = []

        def dispatch(path, params):
            dispatched.append(path)
            return {"path": path}

        limits = HttpLimits(socket_timeout=0.2)
        with serve_dispatch(dispatch, limits=limits) as running:
            accepted = _count_connections(running)
            with HttpTransport(running.base_url) as transport:
                assert transport.request("/first", {}) == {"path": "/first"}
                time.sleep(0.5)  # the server drops the idle connection
                assert transport.request("/second", {}) == {"path": "/second"}
        assert dispatched == ["/first", "/second"]
        assert len(accepted) == 2

    def test_shared_across_threads(self, server, small_world):
        sids = [int(s) for s in small_world.dataset.accounts.steamids()[:64]]
        shared = HttpTransport(server.base_url)
        mismatches: list[int] = []

        def fetch(chunk):
            for sid in chunk:
                payload = shared.request(
                    "/ISteamUser/GetPlayerSummaries/v2",
                    {"key": DEFAULT_API_KEY, "steamids": str(sid)},
                )
                if payload["response"]["players"][0]["steamid"] != str(sid):
                    mismatches.append(sid)

        threads = [
            threading.Thread(target=fetch, args=(sids[i::8],))
            for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the idle-list updates
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            shared.close()
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_close_is_prompt_with_an_idle_client_connection(
        self, small_world
    ):
        from repro.obs import Obs

        obs = Obs()
        running = serve(SteamApiService.from_world(small_world), obs=obs)
        transport = HttpTransport(running.base_url)
        transport.request("/ISteamApps/GetAppList/v2", {"key": DEFAULT_API_KEY})
        # Stop the accept loop first: its exit waits out a poll interval
        # of up to 0.5 s, which is not what this test measures.
        running.server.shutdown()
        start = time.monotonic()
        stuck = running.close()
        elapsed = time.monotonic() - start
        assert stuck == []
        assert elapsed < 0.5
        assert obs.counter("http_drain_leftover_threads").value() == 0


class TestHttpChaos:
    """Server-side fault injection over the genuine network path."""

    def test_truncated_body_surfaces_as_malformed(self, small_world):
        from repro.steamapi.errors import MalformedResponseError
        from repro.faults import FaultPlan
        from repro.steamapi.faults import FaultSpec

        service = SteamApiService.from_world(small_world)
        plan = FaultPlan(seed=4, default=FaultSpec(malformed=1.0))
        with serve(service, fault_plan=plan) as running:
            transport = HttpTransport(running.base_url)
            with pytest.raises(MalformedResponseError):
                transport.request(
                    "/ISteamApps/GetAppList/v2", {"key": DEFAULT_API_KEY}
                )
            assert running.faults.fault_counts["malformed"] == 1

    def test_detail_crawl_survives_http_chaos(self, small_world):
        """The retry stack makes a chaotic HTTP crawl land the same
        harvest as a clean in-process crawl."""
        import numpy as np

        from repro.crawler.details import crawl_details
        from repro.crawler.retry import RetryPolicy
        from repro.crawler.session import CrawlSession
        from repro.crawler.throttle import PolitePacer
        from repro.faults import FaultPlan
        from repro.steamapi.faults import FaultSpec
        from repro.steamapi.transport import InProcessTransport

        def session(transport):
            return CrawlSession(
                transport=transport,
                pacer=PolitePacer(1e9, sleeper=lambda s: None),
                retry=RetryPolicy(
                    sleeper=lambda s: None, max_attempts=10, jitter=True
                ),
            )

        service = SteamApiService.from_world(small_world)
        steamids = small_world.dataset.accounts.steamids()[:60]
        clean = crawl_details(
            session(InProcessTransport(service)), steamids
        )

        plan = FaultPlan(seed=21, default=FaultSpec.uniform(0.15))
        with serve(service, fault_plan=plan) as running:
            harvest = crawl_details(
                session(HttpTransport(running.base_url)), steamids
            )
            assert running.faults.total_injected > 0
        assert np.array_equal(harvest.edge_a, clean.edge_a)
        assert np.array_equal(harvest.lib_appid, clean.lib_appid)
        assert np.array_equal(harvest.lib_total_min, clean.lib_total_min)
        assert np.array_equal(harvest.member_group, clean.member_group)


class TestTracePropagation:
    """The crawler → Steam-API leg of cross-process tracing: the client
    stamps ``X-Repro-Trace`` on every request and the server echoes it
    into its own span tree (DESIGN.md §10)."""

    def _request_once(self, transport, world):
        sid = int(world.dataset.accounts.steamids()[0])
        return transport.request(
            "/ISteamUser/GetPlayerSummaries/v2",
            {"key": DEFAULT_API_KEY, "steamids": str(sid)},
        )

    def test_client_header_joins_server_span(self, small_world):
        from repro.obs import Obs, TraceContext

        obs = Obs(trace=TraceContext.new(seed=77))
        service = SteamApiService.from_world(small_world)
        with serve(service, obs=obs) as running:
            transport = HttpTransport(
                running.base_url, trace=obs.trace, tracer=obs.tracer
            )
            with obs.span("crawl") as crawl:
                self._request_once(transport, small_world)
        http_spans = [
            s
            for s in obs.tracer.snapshot()
            if s["name"].startswith("http:")
        ]
        assert len(http_spans) == 1
        span = http_spans[0]
        assert span["attrs"]["trace_id"] == obs.trace.trace_id
        assert span["attrs"]["track"] == "steamapi-server"
        assert span["attrs"]["status"] == 200
        # The server span's parent is the *client's* open span — the
        # id crossed the wire in the header, not shared memory.
        assert span["parent_span_id"] == crawl.span_id

    def test_server_without_context_still_records_trace_id(
        self, small_world
    ):
        from repro.obs import Obs, TraceContext

        server_obs = Obs()  # separate process in spirit: no context
        trace = TraceContext.new(seed=78)
        service = SteamApiService.from_world(small_world)
        with serve(service, obs=server_obs) as running:
            transport = HttpTransport(running.base_url, trace=trace)
            self._request_once(transport, small_world)
        http_spans = [
            s
            for s in server_obs.tracer.snapshot()
            if s["name"].startswith("http:")
        ]
        assert len(http_spans) == 1
        assert http_spans[0]["attrs"]["trace_id"] == trace.trace_id

    def test_untraced_request_sends_no_header_no_span(self, small_world):
        from repro.obs import Obs

        server_obs = Obs()
        service = SteamApiService.from_world(small_world)
        with serve(service, obs=server_obs) as running:
            transport = HttpTransport(running.base_url)
            self._request_once(transport, small_world)
        assert not [
            s
            for s in server_obs.tracer.snapshot()
            if s["name"].startswith("http:")
        ]


class _RecordingWriter:
    """A handler's ``wfile`` that logs every write before passing it on."""

    def __init__(self, inner, sends: list[bytes]) -> None:
        self._inner = inner
        self._sends = sends

    def write(self, data) -> int:
        self._sends.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestOneSendPerResponse:
    """Head and body leave in one write.  Two writes with Nagle on hold
    the body behind the client's delayed ACK (~40 ms per keep-alive
    request)."""

    @pytest.fixture()
    def recorded(self, monkeypatch):
        def dispatch(path, params):
            if path == "/limited":
                raise RateLimitedError("slow down", retry_after=1.5)
            if path == "/boom":
                raise RuntimeError("internals")
            # Larger than the stdlib's 8 KiB write buffer would hold.
            return {"pad": "x" * 17_000}

        sends: list[bytes] = []
        with serve_dispatch(dispatch) as running:
            handler = running.server.RequestHandlerClass
            setup = handler.setup

            def recording_setup(self):
                setup(self)
                self.wfile = _RecordingWriter(self.wfile, sends)

            monkeypatch.setattr(handler, "setup", recording_setup)
            yield running, sends

    @pytest.mark.parametrize(
        "path, status",
        [
            ("/data", 200),
            ("/limited", 429),
            ("/boom", 500),
            ("/metrics", 200),
        ],
    )
    def test_response_is_one_send(self, recorded, path, status):
        running, sends = recorded
        host, port = running.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for _ in range(2):  # both requests on one keep-alive socket
                sends.clear()
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                assert response.status == status
                assert len(sends) == 1
                assert sends[0].startswith(f"HTTP/1.1 {status} ".encode())
                assert sends[0].endswith(b"\r\n\r\n" + body)
        finally:
            conn.close()
        if status == 429:
            assert response.getheader("Retry-After") == "1.500"
        if status == 500:
            assert body == b'{"error": "InternalError"}'
