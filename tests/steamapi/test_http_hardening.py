"""Socket-level protections and internal-error containment.

The server must survive hostile or broken clients: slow-loris peers
dribbling header bytes, absurd request lines, header floods — and its
own bugs, which must come back as opaque 500s instead of killing the
handler thread or leaking internals.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import Obs
from repro.steamapi.http_server import HttpLimits, serve_dispatch


def _ok_dispatch(path, params):
    return {"ok": True, "path": path}


class TestSlowClientProtection:
    def test_slow_loris_connection_is_closed(self):
        """A client that sends half a request line and stalls must be
        disconnected after the socket timeout, not hold a handler
        thread forever."""
        limits = HttpLimits(socket_timeout=0.3)
        with serve_dispatch(
            _ok_dispatch, access_log=False, limits=limits
        ) as server:
            host, port = server.server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"GET /slow")  # never finishes the line
                start = time.monotonic()
                # The server times out the read and tears down: we see
                # EOF (empty read) rather than hanging.
                sock.settimeout(10)
                data = sock.recv(1024)
                elapsed = time.monotonic() - start
            assert data == b""
            assert elapsed < 8
            # The server is still healthy for well-behaved clients.
            with urllib.request.urlopen(
                server.base_url + "/fine", timeout=10
            ) as response:
                assert response.status == 200

    def test_no_timeout_by_default(self):
        """Embedded servers keep the historical block-forever reads; a
        half-sent request simply waits (bounded here by the test)."""
        with serve_dispatch(_ok_dispatch, access_log=False) as server:
            host, port = server.server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"GET /slow")
                sock.settimeout(0.5)
                with pytest.raises(socket.timeout):
                    sock.recv(1024)  # the *client* times out, not the server


class TestRequestLimits:
    def test_oversized_request_line_is_414(self):
        limits = HttpLimits(max_request_line=200)
        with serve_dispatch(
            _ok_dispatch, access_log=False, limits=limits
        ) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    server.base_url + "/" + "x" * 500, timeout=10
                )
            assert excinfo.value.code == 414

    def test_header_flood_is_431(self):
        limits = HttpLimits(max_headers=8)
        with serve_dispatch(
            _ok_dispatch, access_log=False, limits=limits
        ) as server:
            request = urllib.request.Request(server.base_url + "/thing")
            for i in range(20):
                request.add_header(f"X-Flood-{i}", "y")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 431

    def test_normal_requests_pass_under_limits(self):
        limits = HttpLimits(max_request_line=512, max_headers=32)
        with serve_dispatch(
            _ok_dispatch, access_log=False, limits=limits
        ) as server:
            with urllib.request.urlopen(
                server.base_url + "/fine?q=1", timeout=10
            ) as response:
                assert response.status == 200


class TestInternalErrorContainment:
    def test_non_api_error_becomes_opaque_500(self):
        """A server bug (non-ApiError escaping dispatch) must yield an
        opaque 500 — no message, no traceback — and be counted."""

        class Boom(RuntimeError):
            pass

        def dispatch(path, params):
            if path == "/boom":
                raise Boom("secret internals: db password is hunter2")
            return {"ok": True}

        obs = Obs()
        with serve_dispatch(dispatch, access_log=False, obs=obs) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.base_url + "/boom", timeout=10)
            assert excinfo.value.code == 500
            body = json.loads(excinfo.value.read())
            # Opaque: the error name and nothing else; internals must
            # not leak to the client.
            assert body == {"error": "InternalError"}
            counter = obs.counter("http_internal_errors", labelnames=("path",))
            assert counter.value(path="/boom") == 1
            # The handler thread survived: the next request works.
            with urllib.request.urlopen(
                server.base_url + "/fine", timeout=10
            ) as response:
                assert response.status == 200

    def test_internal_errors_use_route_template_label(self):
        def dispatch(path, params):
            raise RuntimeError("bug")

        obs = Obs()
        with serve_dispatch(
            dispatch,
            access_log=False,
            obs=obs,
            route_of=lambda path: "/users/<id>",
        ) as server:
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    server.base_url + "/users/12345", timeout=10
                )
            counter = obs.counter("http_internal_errors", labelnames=("path",))
            assert counter.value(path="/users/<id>") == 1


def _exchange(server, data: bytes) -> tuple[int, dict, bytes]:
    """Send raw request bytes; return the status, header map and body
    of the one response the server sends before it closes."""
    host, port = server.server.server_address[:2]
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    return int(status_line.split()[1]), headers, body


class TestFraming:
    """The wire's own ceilings and syntax checks, ahead of the policy
    limits: each refusal is a JSON error that closes the connection."""

    @pytest.fixture()
    def server(self):
        with serve_dispatch(_ok_dispatch, access_log=False) as running:
            yield running

    def _refused(self, server, data: bytes, status: int) -> dict:
        got, headers, body = _exchange(server, data)
        assert got == status
        assert headers["Connection"] == "close"
        payload = json.loads(body)
        assert payload["error"] == "BadRequestError"
        return payload

    def test_request_line_over_64k_is_414(self, server):
        prefix, suffix = b"GET /", b" HTTP/1.1\r\n"
        line = prefix + b"a" * (65537 - len(prefix) - len(suffix)) + suffix
        assert len(line) == 65537
        self._refused(server, line, 414)

    def test_101_headers_is_431(self, server):
        head = b"".join(b"X-H-%d: v\r\n" % i for i in range(101))
        data = b"GET / HTTP/1.1\r\n" + head + b"\r\n"
        payload = self._refused(server, data, 431)
        assert payload["message"] == "more than 100 headers"

    def test_100_headers_reach_the_policy_limit(self, server):
        head = b"".join(b"X-H-%d: v\r\n" % i for i in range(99))
        data = b"GET / HTTP/1.1\r\nConnection: close\r\n" + head + b"\r\n"
        status, _, body = _exchange(server, data)
        assert status == 431
        assert json.loads(body)["message"] == "more than 64 headers"

    def test_header_line_over_64k_is_431(self, server):
        prefix = b"X-Big: "
        line = prefix + b"b" * (65537 - len(prefix) - 2) + b"\r\n"
        assert len(line) == 65537
        self._refused(server, b"GET / HTTP/1.1\r\n" + line, 431)

    @pytest.mark.parametrize(
        "version, status",
        [("HTTP/1.x", 400), ("HTTPS/1.1", 400), ("HTTP/1.1.1", 400),
         ("HTTP/2.0", 505), ("HTTP/3.0", 505)],
    )
    def test_bad_version(self, server, version, status):
        data = f"GET / {version}\r\n\r\n".encode()
        payload = self._refused(server, data, status)
        assert version in payload["message"]

    @pytest.mark.parametrize("method", ["POST", "PUT", "DELETE", "HEAD"])
    def test_methods_other_than_get_are_501(self, server, method):
        data = f"{method} / HTTP/1.1\r\n\r\n".encode()
        payload = self._refused(server, data, 501)
        assert method in payload["message"]

    @pytest.mark.parametrize(
        "line",
        [b"NoColonHere\r\n", b": no name\r\n", b" folded: value\r\n",
         b"\tfolded\r\n"],
    )
    def test_malformed_header_line_is_400(self, server, line):
        data = b"GET / HTTP/1.1\r\nHost: x\r\n" + line + b"\r\n"
        self._refused(server, data, 400)

    def test_malformed_request_line_is_400(self, server):
        self._refused(server, b"GET / HTTP/1.1 extra\r\n\r\n", 400)
        self._refused(server, b"GARBAGE\r\n\r\n", 400)

    def test_duplicate_header_first_wins(self, server):
        # "close" first: one response, then the server hangs up.
        data = (
            b"GET /a HTTP/1.1\r\nConnection: close\r\n"
            b"Connection: keep-alive\r\n\r\n"
        )
        status, _, body = _exchange(server, data)
        assert status == 200
        assert json.loads(body) == {"ok": True, "path": "/a"}

    def test_http09_gets_a_bare_body(self, server):
        host, port = server.server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"GET /old\r\n\r\n")
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        assert json.loads(b"".join(chunks)) == {"ok": True, "path": "/old"}

    def test_keep_alive_after_a_served_request(self, server):
        host, port = server.server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            reader = sock.makefile("rb")
            for path in (b"/one", b"/two"):
                sock.sendall(b"GET " + path + b" HTTP/1.1\r\n\r\n")
                assert reader.readline().startswith(b"HTTP/1.1 200 ")
                length = 0
                while (line := reader.readline()) != b"\r\n":
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                body = json.loads(reader.read(length))
                assert body["path"] == path.decode()
            reader.close()


class TestHeaders:
    def test_lookup_ignores_case_and_first_wins(self):
        from repro.steamapi.wire import Headers

        headers = Headers([("X-A", "1"), ("x-a", "2"), ("Other", "3")])
        assert headers.get("x-A") == "1"
        assert headers.get("missing", "d") == "d"
        assert len(headers) == 3
        assert headers.items() == [("X-A", "1"), ("x-a", "2"), ("Other", "3")]
