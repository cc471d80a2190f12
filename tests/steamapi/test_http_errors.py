"""HTTP transport and server error paths.

Satellite coverage for the crash-safety PR: a connection that dies
*mid-response* must surface as a retryable typed error (never a raw
``TimeoutError``/``IncompleteRead`` that aborts the crawl), and the
server must answer malformed or unknown requests with JSON error
bodies, not handler-thread tracebacks.
"""

import concurrent.futures
import json
import socket
import threading
import urllib.request

import pytest

from repro.steamapi.errors import (
    ApiError,
    BadRequestError,
    MalformedResponseError,
    NotFoundError,
)
from repro.steamapi.http_client import HttpTransport
from repro.steamapi.http_server import serve
from repro.steamapi.service import DEFAULT_API_KEY, SteamApiService


class _RawSocketServer:
    """A one-connection-at-a-time server speaking scripted raw HTTP.

    ``behavior(conn, closed)`` gets each accepted connection and the
    event :meth:`close` sets; whatever bytes it writes (or fails to
    write) are what the client sees.  This is how
    we produce wire-level failures urllib can't fake: short bodies,
    mid-read stalls, resets.
    """

    def __init__(self, behavior) -> None:
        self.behavior = behavior
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(4)
        self.base_url = "http://127.0.0.1:%d" % self.sock.getsockname()[1]
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            try:
                conn.recv(65536)  # drain the request; content irrelevant
                self.behavior(conn, self._stop)
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self) -> None:
        self._stop.set()
        # close() alone does not wake the accept() blocked in _loop on
        # Linux; shutdown does, so the join below returns at once.
        self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()
        self.thread.join(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _short_body(conn, closed) -> None:
    """Advertise 1000 body bytes, send 10, hang up: IncompleteRead."""
    conn.sendall(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: 1000\r\n"
        b"\r\n"
        b'{"partial":'
    )


def _ok_body(conn, closed) -> None:
    """A complete keep-alive JSON reply."""
    conn.sendall(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: 12\r\n"
        b"\r\n"
        b'{"ok": true}'
    )


def _stall_forever(conn, closed) -> None:
    """Send headers then nothing: the body read must time out."""
    conn.sendall(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: 1000\r\n"
        b"\r\n"
    )
    # Keep the connection open past the client timeout, until the
    # server closes.
    closed.wait(timeout=10.0)


def _body_to_eof(conn, closed) -> None:
    """A reply without Content-Length: the body ends when we hang up."""
    conn.sendall(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/json\r\n"
        b"\r\n"
        b'{"ok": true}'
    )


def _garbage_status(conn, closed) -> None:
    conn.sendall(b"SMTP ready\r\n\r\n")


def _recording_sends(monkeypatch) -> list[bool]:
    """Record the ``reused`` flag of every :meth:`HttpTransport._send`."""
    sends: list[bool] = []
    send = HttpTransport._send

    def recording_send(self, conn, target, headers, reused):
        sends.append(reused)
        return send(self, conn, target, headers, reused)

    monkeypatch.setattr(HttpTransport, "_send", recording_send)
    return sends


class TestFraming:
    def test_body_without_length_is_read_to_eof(self, monkeypatch):
        sends = _recording_sends(monkeypatch)
        with _RawSocketServer(_body_to_eof) as raw:
            with HttpTransport(raw.base_url, timeout=5.0) as transport:
                assert transport.request("/a", {}) == {"ok": True}
                assert transport._idle == []  # spent: never reused
                assert transport.request("/b", {}) == {"ok": True}
        assert sends == [False, False]

    def test_garbage_status_line_is_malformed(self):
        with _RawSocketServer(_garbage_status) as raw:
            transport = HttpTransport(raw.base_url, timeout=5.0)
            with pytest.raises(MalformedResponseError, match="mid-response"):
                transport.request("/anything", {})
            assert transport._idle == []

    @pytest.mark.parametrize(
        "host, address",
        [
            ("127.0.0.1:8080", ("127.0.0.1", 8080)),
            ("localhost", ("localhost", 80)),
            ("[::1]:8080", ("::1", 8080)),
            ("[::1]", ("::1", 80)),
        ],
    )
    def test_host_forms(self, host, address):
        from repro.steamapi.http_client import _address

        assert _address(host) == address

    def test_ipv6_loopback(self):
        try:
            listener = socket.create_server(("::1", 0), family=socket.AF_INET6)
        except OSError:
            pytest.skip("no IPv6 loopback")

        def answer():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                _ok_body(conn, None)

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        port = listener.getsockname()[1]
        with listener, HttpTransport(f"http://[::1]:{port}") as transport:
            assert transport.request("/v6", {}) == {"ok": True}
        thread.join(timeout=5)


class TestMidResponseFailures:
    def test_truncated_body_raises_retryable_error(self):
        with _RawSocketServer(_short_body) as raw:
            transport = HttpTransport(raw.base_url, timeout=5.0)
            with pytest.raises(MalformedResponseError, match="mid-response"):
                transport.request("/anything", {})

    def test_timeout_mid_read_raises_retryable_error(self):
        with _RawSocketServer(_stall_forever) as raw:
            transport = HttpTransport(raw.base_url, timeout=0.3)
            with pytest.raises(MalformedResponseError, match="mid-response"):
                transport.request("/anything", {})

    def test_next_request_after_failure_opens_a_fresh_connection(
        self, monkeypatch
    ):
        replies = [_short_body, _ok_body]
        sends = _recording_sends(monkeypatch)
        with _RawSocketServer(
            lambda conn, closed: replies.pop(0)(conn, closed)
        ) as raw:
            transport = HttpTransport(raw.base_url, timeout=5.0)
            with pytest.raises(MalformedResponseError, match="mid-response"):
                transport.request("/anything", {})
            assert transport.request("/anything", {}) == {"ok": True}
        assert sends == [False, False]

    def test_mid_response_error_is_retryable_by_policy(self):
        # The crawler's retry policy must classify the new error as
        # transient — that is the point of mapping it.
        from repro.crawler.retry import RetryPolicy

        calls = {"n": 0}
        with _RawSocketServer(_short_body) as raw:
            broken = HttpTransport(raw.base_url, timeout=5.0)

            def flaky(path, params):
                calls["n"] += 1
                if calls["n"] == 1:
                    return broken.request(path, params)
                return {"ok": True}

            policy = RetryPolicy(max_attempts=3, sleeper=lambda _s: None)
            assert policy.call(lambda: flaky("/x", {})) == {"ok": True}
        assert calls["n"] == 2


@pytest.fixture(scope="module")
def server(small_world):
    service = SteamApiService.from_world(small_world)
    with serve(service) as running:
        yield running


class TestServerErrorPaths:
    def test_malformed_query_returns_400_json(self, server):
        url = (
            f"{server.base_url}/ISteamUser/GetFriendList/v1"
            f"?key={DEFAULT_API_KEY}&steamid=not-a-number"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url, timeout=5)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read().decode())
        assert payload["error"] == "BadRequestError"
        assert "malformed request parameters" in payload["message"]

    def test_malformed_query_via_transport_is_typed(self, server):
        transport = HttpTransport(server.base_url)
        with pytest.raises(BadRequestError):
            transport.request(
                "/ISteamUser/GetFriendList/v1",
                {"key": DEFAULT_API_KEY, "steamid": "not-a-number"},
            )

    def test_missing_required_param_returns_400(self, server):
        transport = HttpTransport(server.base_url)
        with pytest.raises((BadRequestError, ApiError)) as excinfo:
            transport.request(
                "/ISteamUser/GetFriendList/v1", {"key": DEFAULT_API_KEY}
            )
        assert isinstance(excinfo.value, ApiError)
        assert excinfo.value.status in (400, 404)

    def test_unknown_endpoint_404_with_json_body(self, server):
        url = f"{server.base_url}/IDoNot/Exist/v9"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url, timeout=5)
        assert excinfo.value.code == 404
        payload = json.loads(excinfo.value.read().decode())
        assert payload["error"] == "NotFoundError"
        transport = HttpTransport(server.base_url)
        with pytest.raises(NotFoundError):
            transport.request("/IDoNot/Exist/v9", {})

    def test_metrics_under_concurrent_load(self, server, small_world):
        # /metrics must stay serveable and parseable while worker
        # threads hammer the API, and the request counter must account
        # for every successful call we made.
        sids = small_world.dataset.accounts.steamids()[:8]
        path = "/ISteamUser/GetPlayerSummaries/v2"
        before = _counter_total(server, path)

        def fetch(sid):
            transport = HttpTransport(server.base_url)
            payload = transport.request(
                path, {"key": DEFAULT_API_KEY, "steamids": str(int(sid))}
            )
            return payload["response"]["players"][0]["steamid"]

        def scrape(_i):
            with urllib.request.urlopen(
                f"{server.base_url}/metrics", timeout=5
            ) as resp:
                body = resp.read().decode()
            assert "http_requests" in body
            return body

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            fetched = list(pool.map(fetch, list(sids) * 4))
            scraped = list(pool.map(scrape, range(16)))
        assert len(fetched) == len(sids) * 4
        assert all(scraped)
        after = _counter_total(server, path)
        assert after - before == len(sids) * 4


def _counter_total(server, path: str) -> float:
    """The http_requests counter for one path's successful calls."""
    metric = server.obs.registry.get("http_requests")
    return metric.value(path=path, status=200)
