"""HTTP client transport on persistent connections (``http.client``).

Trace propagation: a transport constructed with a
:class:`~repro.obs.trace_context.TraceContext` stamps every request
with an ``X-Repro-Trace: <trace_id>:<parent_span_id>`` header.  The
parent span id is the caller's innermost open span when a tracer is
also supplied (so server-side spans nest under the crawler span that
issued the request), else the context's ambient parent.
"""

from __future__ import annotations

import http.client
import json
import re
import threading

from repro.obs.trace_context import TRACE_HEADER, TraceContext
from repro.steamapi.errors import (
    ApiError,
    MalformedResponseError,
    RateLimitedError,
    error_for_status,
)

__all__ = ["HttpTransport"]

#: Query bytes sent as they are: RFC 3986 unreserved, plus the comma.
_ESCAPED = re.compile(r"[^A-Za-z0-9_.~,-]")
_STALE = (BrokenPipeError, ConnectionResetError)


def _quote(value) -> str:
    return _ESCAPED.sub(
        lambda m: "".join(f"%{b:02X}" for b in m[0].encode()), str(value)
    )


class HttpTransport:
    """JSON-over-HTTP access to an :class:`ApiHttpServer`.

    A request takes an idle keep-alive connection (or opens one) and
    returns it after a clean response; threads may share a transport.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        trace: TraceContext | None = None,
        tracer=None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.trace = trace
        self.tracer = tracer
        host, slash, prefix = self.base_url.split("://")[-1].partition("/")
        self._host, self._prefix = host, slash + prefix
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections; a later request opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "HttpTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _trace_header(self) -> str | None:
        if self.trace is None:
            return None
        parent = None
        if self.tracer is not None:
            current = self.tracer.current()
            if current is not None and current.span_id is not None:
                parent = current.span_id
        return self.trace.value(parent_span_id=parent)

    def _send(self, conn, target: str, headers: dict, reused: bool):
        try:
            conn.request("GET", target, headers=headers)
        except OSError as exc:
            conn.close()
            if reused and isinstance(exc, _STALE):
                raise
            raise ApiError(f"transport failure: {exc}") from None
        return conn.getresponse()

    def request(self, path: str, params: dict) -> dict:
        target = f"{self._prefix}{path}?" + "&".join(
            f"{_quote(k)}={_quote(v)}" for k, v in params.items() if v is not None
        )
        header = self._trace_header()
        headers = {} if header is None else {TRACE_HEADER: header}
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        try:
            resp = None
            if conn is not None:
                try:
                    resp = self._send(conn, target, headers, reused=True)
                except _STALE:  # closed while idle, so never dispatched:
                    conn.close()  # resend once; the server sees each call once
            if resp is None:
                conn = http.client.HTTPConnection(self._host, timeout=self.timeout)
                resp = self._send(conn, target, headers, reused=False)
            raw = resp.read()
        except (http.client.HTTPException, OSError) as exc:
            # Died after the request went out (no status line, a short
            # body, a timeout): retryable, the bytes never arrived whole.
            conn.close()
            raise MalformedResponseError(
                f"connection failed mid-response: {exc!r}"
            ) from None
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        if resp.status >= 400:
            try:
                message = json.loads(raw.decode("utf-8")).get("message", "")
            except ValueError:
                message = ""
            error = error_for_status(resp.status, message)
            if isinstance(error, RateLimitedError):
                try:
                    error.retry_after = float(resp.getheader("Retry-After", 1))
                except ValueError:
                    error.retry_after = 1.0
            raise error
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            # Truncated mid-transfer or proxy garbage: retryable,
            # never hand undecodable bytes to the crawler.
            raise MalformedResponseError(
                f"invalid JSON body ({len(raw)} bytes): {exc}"
            ) from None
