"""JSON-over-HTTP server exposing a dispatch function on localhost.

A thread per connection (:class:`socketserver.ThreadingTCPServer`)
runs its own HTTP/1.1 keep-alive loop over :mod:`repro.steamapi.wire`
framing.  Typed API errors map to HTTP status codes; rate-limit errors
carry a ``Retry-After`` header, which the crawler's backoff honours.
:func:`serve` wraps a
:class:`~repro.steamapi.service.SteamApiService`; the lower-level
:func:`serve_dispatch` accepts any ``dispatch(path, params) -> dict``
callable, which is how the analytics serving tier
(:mod:`repro.serving`) reuses this machinery.

Passing a :class:`~repro.faults.FaultPlan` to :func:`serve`
puts a :class:`~repro.steamapi.faults.FaultInjectingTransport` in front
of the service, so chaos testing also covers the genuine network path:
injected truncations are sent as real broken bytes on the socket (a 200
response whose body is not valid JSON), which the HTTP client must
detect and surface as a retryable error.

Observability: every server carries an :class:`~repro.obs.Obs` (one is
created when the caller doesn't supply one) that counts requests by
path and status and histograms request latency; ``GET /metrics``
exposes it in Prometheus text exposition format.  Callers with
parameterized paths (``/users/<id>/summary``) pass ``route_of`` to
collapse raw paths onto route templates, keeping metric label
cardinality bounded.  Access logging goes through the
``repro.steamapi.http`` logger and is *off* by default — chaos tests
hammer the server with thousands of requests and must not spam stderr —
and on for the ``serve`` CLI command unless ``--quiet``.

Framing errors get the JSON error body too: 414 for a request line
over 64 KiB, 431 for an over-long header line or more than 100
headers, 400 for a malformed request line, version or header line, 505
for HTTP/2 and later, 501 for any method but ``GET``.

Shutdown: request-handler threads are daemonic and
:meth:`ApiHttpServer.close` drains them with a *bounded* join.  The
stock ``socketserver`` threading defaults (non-daemon handler threads,
``block_on_close = True``) make ``server_close()`` join every in-flight
handler with no timeout, so one slow or stuck client could hang
shutdown forever; here a stuck handler is abandoned after
``drain_timeout`` seconds and reported instead.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import threading
import time
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from http import HTTPStatus
from typing import Callable
from urllib.parse import parse_qs, urlparse

from repro.obs import Obs
from repro.obs.reqlog import RecordBuilder
from repro.obs.trace_context import TRACE_HEADER, parse_trace_value
from repro.steamapi.deadline import (
    DEADLINE_HEADER,
    Deadline,
    deadline_scope,
    effective_budget,
    parse_deadline_value,
)
from repro.faults import FaultPlan
from repro.steamapi.errors import (
    ApiError,
    BadRequestError,
    MalformedResponseError,
    RateLimitedError,
)
from repro.steamapi.faults import AbortedResponse, FaultInjectingTransport
from repro.steamapi import wire
from repro.steamapi.service import SteamApiService
from repro.steamapi.transport import InProcessTransport

__all__ = [
    "ApiHttpServer",
    "DrainingThreadingHTTPServer",
    "HttpLimits",
    "serve",
    "serve_dispatch",
]

#: Access-log destination; handlers/levels are the embedder's business.
access_logger = logging.getLogger("repro.steamapi.http")

#: How often the accept loop checks for a shutdown request.  ``close()``
#: waits up to this long before the drain starts; the standard library's
#: 0.5 s default cost every server teardown ~0.25 s on average.
_SHUTDOWN_POLL_S = 0.05

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_SERVER = "repro-steamapi"


@dataclass(frozen=True)
class HttpLimits:
    """Socket-level guardrails and the server-side request budget.

    ``socket_timeout`` is the slow-client protection: it bounds every
    blocking read *and* write on a handler's connection, so a
    slow-loris client dribbling header bytes (or a reader that stops
    draining the response) costs one daemon thread for at most the
    timeout, not forever.  ``None`` keeps the stdlib's block-forever
    behavior (embedded test servers that want wedge-able handlers).

    ``request_budget`` is the server's default deadline per request; a
    client's ``X-Repro-Deadline`` header can only tighten it.  ``None``
    disables server-side deadlines (again the embedded default — the
    ``repro serve-analytics`` CLI turns both protections on).

    ``max_request_line`` / ``max_headers`` reject oversized request
    lines (**414**) and header blocks (**431**) before they reach
    dispatch.  They are checked *after* the request is read — the
    framing's hard ceilings (64 KiB line, 100 headers, see
    :mod:`repro.steamapi.wire`) bound the worst-case buffering — so
    these are policy limits on what the server will serve, not a
    reduction of parser memory.
    """

    socket_timeout: float | None = None
    request_budget: float | None = None
    max_request_line: int = 8192
    max_headers: int = 64


class DrainingThreadingHTTPServer(socketserver.ThreadingTCPServer):
    """A thread-per-connection server whose shutdown cannot hang on a client.

    Handler threads are daemonic and tracked with their connections;
    :meth:`drain` half-closes those, joins the threads against one
    shared deadline and returns whichever are still alive, so ``close()``
    is bounded even when a handler is wedged behind a stalled client.
    """

    allow_reuse_address = True
    daemon_threads = True
    #: The ThreadingMixIn join-forever path must stay off: drain() is
    #: the bounded replacement.
    block_on_close = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._handlers: dict[threading.Thread, socket.socket] = {}
        self._handler_lock = threading.Lock()

    def process_request_thread(self, request, client_address) -> None:
        thread = threading.current_thread()
        with self._handler_lock:
            self._handlers[thread] = request
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._handler_lock:
                del self._handlers[thread]

    def drain(self, timeout: float) -> list[threading.Thread]:
        """Join in-flight handlers for at most ``timeout`` seconds total.

        Connections are first shut for reading, so idle keep-alive
        handlers read EOF at once while busy ones still reply.  Returns
        the threads that were still alive at the deadline (daemonic, so
        they cannot keep the process hostage).
        """
        deadline = time.monotonic() + timeout
        with self._handler_lock:
            handlers = dict(self._handlers)
        for conn in handlers.values():
            with suppress(OSError):
                conn.shutdown(socket.SHUT_RD)
        for thread in handlers:
            thread.join(max(0.0, deadline - time.monotonic()))
        return [thread for thread in handlers if thread.is_alive()]


def _make_handler(
    dispatch,
    obs: Obs,
    access_log: bool,
    route_of: Callable[[str], str] | None = None,
    limits: HttpLimits | None = None,
    records=None,
):
    limits = limits or HttpLimits()
    m_requests = obs.counter(
        "http_requests",
        "HTTP requests served, by path and status "
        "(status 499 = aborted mid-body: the wire said 200 but the "
        "connection was cut before the body completed)",
        ("path", "status"),
    )
    m_latency = obs.histogram(
        "http_request_seconds",
        "HTTP request handling latency",
        labelnames=("path",),
        exemplars=True,
    )
    m_internal = obs.counter(
        "http_internal_errors",
        "Non-ApiError exceptions escaping dispatch, mapped to opaque 500s",
        ("path",),
    )
    m_aborted = obs.counter(
        "http_aborted_bodies",
        "Responses deliberately cut mid-body (injected aborts), "
        "recorded under the nginx-style 499 status sentinel",
    )

    class Handler(socketserver.StreamRequestHandler):
        #: StreamRequestHandler applies this to the connection socket,
        #: bounding every read *and* write — the slow-client guard.
        timeout = limits.socket_timeout

        def handle(self) -> None:
            """Serve requests until one closes the connection."""
            self.close_connection = False
            while not self.close_connection:
                self.handle_one_request()

        def handle_one_request(self) -> None:
            self.requestline = self.command = self.path = ""
            self.request_version = "HTTP/1.1"
            try:
                try:
                    line = wire.read_line(self.rfile, 414)
                    self.requestline = line.decode("latin-1").rstrip("\r\n")
                    request = wire.parse_request_line(self.requestline)
                    if request is None:  # EOF or a blank line
                        self.close_connection = True
                        return
                    self.command, path, version, number = request
                    # Collapse a leading "//": clients read it as a host.
                    if path.startswith("//"):
                        path = "/" + path.lstrip("/")
                    self.path = path
                    self.request_version = version
                    self.close_connection = number < (1, 1)
                    self.headers = wire.read_headers(self.rfile)
                except wire.FramingError as exc:
                    self._refuse(exc.status, str(exc))
                    return
                connection = (self.headers.get("connection") or "").lower()
                if connection == "close":
                    self.close_connection = True
                elif connection == "keep-alive":
                    self.close_connection = False
                if self.command != "GET":
                    self._refuse(
                        501, f"unsupported method {self.command[:32]!r}"
                    )
                    return
                self.do_GET()
            except TimeoutError:
                # A read or a write timed out: drop the connection.
                self.close_connection = True

        def _refuse(self, status: int, message: str) -> None:
            """Answer a request that never reaches dispatch, then close."""
            self.close_connection = True
            self._reply_error(BadRequestError(message), status, close=True)

        def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
            start = obs.clock()
            parsed = urlparse(self.path)
            if parsed.path == "/metrics":
                body = obs.to_prometheus().encode("utf-8")
                self._reply(
                    200, body, content_type="text/plain; version=0.0.4"
                )
                self._account(parsed.path, 200, start)
                return
            if len(self.requestline) > limits.max_request_line:
                self._account(
                    parsed.path,
                    self._reply_error(
                        BadRequestError(
                            f"request line exceeds "
                            f"{limits.max_request_line} bytes"
                        ),
                        status=414,
                    ),
                    start,
                )
                return
            if len(self.headers) > limits.max_headers:
                self._account(
                    parsed.path,
                    self._reply_error(
                        BadRequestError(
                            f"more than {limits.max_headers} headers"
                        ),
                        status=431,
                    ),
                    start,
                )
                return
            params = {
                name: values[0]
                for name, values in parse_qs(parsed.query).items()
            }
            status = 200
            # A crawler that carries an X-Repro-Trace header gets its
            # request echoed into a server-side span, parented under
            # the client span that issued it — the merged trace shows
            # both sides of every request on the server's track.
            traced = parse_trace_value(self.headers.get(TRACE_HEADER))
            span_cm = (
                obs.span(
                    f"http:{parsed.path}",
                    parent_span_id=traced[1],
                    track="steamapi-server",
                    trace_id=traced[0],
                )
                if traced is not None
                else nullcontext()
            )
            trace_id = traced[0] if traced is not None else None
            builder = (
                records.open_record(parsed.path)
                if records is not None
                else None
            )
            seq = None
            bytes_out = 0
            serialize_s = write_s = 0.0
            with span_cm as span:
                try:
                    try:
                        budget = effective_budget(
                            parse_deadline_value(
                                self.headers.get(DEADLINE_HEADER)
                            ),
                            limits.request_budget,
                        )
                        deadline = (
                            Deadline.after(budget, clock=obs.clock)
                            if budget is not None
                            else None
                        )
                        with deadline_scope(deadline):
                            payload = (
                                dispatch(parsed.path, params)
                                if builder is None
                                else dispatch(parsed.path, params, builder)
                            )
                        t_serialize = obs.clock()
                        body = json.dumps(payload).encode("utf-8")
                        t_write = obs.clock()
                        self._reply(200, body)
                        serialize_s = t_write - t_serialize
                        write_s = obs.clock() - t_write
                        bytes_out = len(body)
                    except MalformedResponseError as exc:
                        if exc.body is not None:
                            # Injected truncation: ship the broken bytes as a
                            # "successful" response, exactly like a connection
                            # dropped mid-transfer behind a buffering proxy.
                            self._reply(200, exc.body)
                            bytes_out = len(exc.body)
                        else:
                            status = self._reply_error(exc)
                    except AbortedResponse as exc:
                        # Injected mid-body abort: promise the full length,
                        # deliver a prefix, slam the connection — the client
                        # must see an incomplete read, not valid JSON.  The
                        # wire says 200 (that's the point of the fault), but
                        # telemetry records the nginx-style 499 sentinel so
                        # metrics, spans, and the access log separate
                        # deliberate aborts from clean successes.
                        m_aborted.inc()
                        status = 499
                        t_write = obs.clock()
                        self._reply(
                            200, exc.body[: exc.cut], length=len(exc.body)
                        )
                        self.close_connection = True
                        write_s = obs.clock() - t_write
                        bytes_out = exc.cut
                    except ApiError as exc:
                        status = self._reply_error(exc)
                    except (KeyError, ValueError, TypeError) as exc:
                        # Malformed query strings (non-numeric ids, missing
                        # required params) must come back as a 400 JSON error,
                        # not kill the handler thread with a raw traceback.
                        status = self._reply_error(
                            BadRequestError(
                                f"malformed request parameters: {exc}"
                            )
                        )
                    except OSError:
                        # Socket-level failure (client gone mid-write, send
                        # timeout): there is no one to reply to — let the
                        # stdlib request loop tear the connection down.
                        # (The finally below still commits the record,
                        # with the status dispatch gave it.)
                        raise
                    except Exception:
                        # Anything else escaping dispatch is a server bug:
                        # answer with an *opaque* 500 (no message — internals
                        # don't leak to clients), count it, and keep the
                        # handler thread alive for the next request.
                        status = 500
                        label = (
                            route_of(parsed.path)
                            if route_of is not None
                            else parsed.path
                        )
                        m_internal.inc(path=label)
                        access_logger.exception(
                            "internal error dispatching %s (trace=%s)",
                            parsed.path,
                            trace_id or "-",
                        )
                        try:
                            self._reply(
                                500,
                                b'{"error": "InternalError"}',
                            )
                        except OSError:
                            # Client is gone; nothing to reply to.
                            self.close_connection = True
                    if builder is not None:
                        # The wire-side truth: the status actually sent
                        # (or the 499 sentinel) and the socket timings.
                        builder.status = status
                        builder.bytes_out = bytes_out
                        builder.serialize_s = serialize_s
                        builder.write_s = write_s
                finally:
                    # Exactly one record per opened builder, however
                    # the exchange ended.
                    if builder is not None:
                        builder.trace_id = trace_id
                        builder.span_id = (
                            span.span_id if span is not None else None
                        )
                        seq = records.commit_record(builder)
                if span is not None:
                    span.attrs["status"] = status
            self._account(parsed.path, status, start, builder, seq, trace_id)

        def _account(
            self,
            path: str,
            status: int,
            start: float,
            builder: RecordBuilder | None = None,
            seq: int | None = None,
            trace_id: str | None = None,
        ) -> None:
            # Metric labels use the route template when the dispatcher
            # provides one (id-bearing raw paths would explode label
            # cardinality); the access log keeps the raw path.  A
            # request record already carries its template.
            if builder is not None:
                label = builder.route
            else:
                label = route_of(path) if route_of is not None else path
            m_requests.inc(path=label, status=status)
            # The exemplar points at the committed record in the ring.
            exemplar = (
                {"trace_id": trace_id or "-", "seq": str(seq)}
                if seq is not None
                else None
            )
            m_latency.observe(
                obs.clock() - start, exemplar=exemplar, path=label
            )
            if access_log:
                access_logger.info(
                    "%s %s -> %d trace=%s",
                    self.command,
                    self.path,
                    status,
                    trace_id or "-",
                )

        def _reply_error(
            self, exc: ApiError, status: int | None = None, close: bool = False
        ) -> int:
            body = json.dumps(
                {"error": exc.__class__.__name__, "message": exc.message}
            ).encode("utf-8")
            extra = {"Connection": "close"} if close else {}
            if isinstance(exc, RateLimitedError):
                extra["Retry-After"] = f"{exc.retry_after:.3f}"
            status = exc.status if status is None else status
            self._reply(status, body, extra)
            return status

        def _reply(
            self,
            status: int,
            body: bytes,
            extra: dict | None = None,
            content_type: str = "application/json",
            length: int | None = None,
        ) -> None:
            """One send per response: head then body as two writes
            would wait out the client's delayed ACK (Nagle, ~40 ms).
            ``length`` overrides the promised ``Content-Length``; an
            HTTP/0.9 request gets the bare body."""
            if self.request_version != "HTTP/0.9":
                body = "\r\n".join((
                    f"HTTP/1.1 {status} {_REASONS.get(status, '')}",
                    f"Server: {_SERVER}",
                    f"Date: {wire.http_date()}",
                    f"Content-Type: {content_type}",
                    f"Content-Length: {len(body) if length is None else length}",
                    *(f"{name}: {value}" for name, value in (extra or {}).items()),
                    "\r\n",
                )).encode("latin-1") + body
            self.wfile.write(body)

    return Handler


@dataclass
class ApiHttpServer:
    """A running API server plus its lifecycle handles."""

    server: DrainingThreadingHTTPServer
    thread: threading.Thread
    #: Present when the server was started with a fault plan; exposes
    #: the injected-fault counters.
    faults: FaultInjectingTransport | None = None
    #: Server-side observability; also served at ``GET /metrics``.
    obs: Obs | None = None
    #: Maximum seconds ``close`` spends joining in-flight handlers.
    drain_timeout: float = 2.0

    @property
    def base_url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> list[threading.Thread]:
        """Stop serving; bounded even with requests stuck in flight.

        Stops accepting connections, drains in-flight handlers for at
        most :attr:`drain_timeout` seconds, then closes the socket.
        Returns the handler threads (daemonic) that were abandoned
        because they did not finish within the deadline — empty on a
        clean shutdown.  Leftovers are never silent: callers routinely
        drop the return value, so a non-empty drain also logs a
        warning and bumps the ``http_drain_leftover_threads`` counter.
        """
        self.server.shutdown()
        stuck = self.server.drain(self.drain_timeout)
        if stuck:
            access_logger.warning(
                "%d handler thread(s) still alive after the %.1fs "
                "drain deadline (daemonic; abandoned)",
                len(stuck),
                self.drain_timeout,
            )
            if self.obs is not None:
                self.obs.counter(
                    "http_drain_leftover_threads",
                    "Handler threads abandoned at the shutdown drain "
                    "deadline (wedged mid-request)",
                ).inc(len(stuck))
        self.server.server_close()
        self.thread.join(timeout=5)
        return stuck

    def __enter__(self) -> "ApiHttpServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_dispatch(
    dispatch,
    host: str = "127.0.0.1",
    port: int = 0,
    obs: Obs | None = None,
    access_log: bool = False,
    route_of: Callable[[str], str] | None = None,
    faults: FaultInjectingTransport | None = None,
    limits: HttpLimits | None = None,
    records=None,
) -> ApiHttpServer:
    """Serve any ``dispatch(path, params) -> dict`` callable over HTTP.

    Starts on a background thread; port 0 picks a free port.  ``obs``
    supplies the metrics scope behind ``GET /metrics`` (a private one
    is created when omitted); ``route_of`` maps raw request paths to
    route templates for metric labels; ``access_log`` emits one
    ``repro.steamapi.http`` log line per request; ``limits`` adds
    slow-client socket timeouts and a default request deadline (see
    :class:`HttpLimits` — the default keeps the historical
    no-timeout behavior for embedded test servers).

    ``records`` is the request-record hook of the analytics service
    (:meth:`~repro.serving.api.AnalyticsService.open_record` and
    ``commit_record``): a request it opens a record for is dispatched
    as ``dispatch(path, params, builder)``, and the handler commits
    that record once the reply is written.
    """
    if obs is None:
        obs = Obs()
    server = DrainingThreadingHTTPServer(
        (host, port),
        _make_handler(dispatch, obs, access_log, route_of, limits, records),
    )
    thread = threading.Thread(
        target=server.serve_forever, args=(_SHUTDOWN_POLL_S,), daemon=True
    )
    thread.start()
    return ApiHttpServer(
        server=server, thread=thread, faults=faults, obs=obs
    )


def serve(
    service: SteamApiService,
    host: str = "127.0.0.1",
    port: int = 0,
    fault_plan: FaultPlan | None = None,
    obs: Obs | None = None,
    access_log: bool = False,
    limits: HttpLimits | None = None,
) -> ApiHttpServer:
    """Start serving a :class:`SteamApiService`; port 0 picks a free port.

    ``fault_plan`` injects deterministic failures server-side (see
    :mod:`repro.steamapi.faults`).  ``obs`` supplies the metrics scope
    behind ``GET /metrics`` (a private one is created when omitted);
    ``access_log`` emits one ``repro.steamapi.http`` log line per
    request.
    """
    if obs is None:
        obs = Obs()
    faults: FaultInjectingTransport | None = None
    dispatch = service.dispatch
    if fault_plan is not None:
        faults = FaultInjectingTransport(
            InProcessTransport(service), fault_plan, obs=obs
        )
        dispatch = faults.request
    return serve_dispatch(
        dispatch,
        host=host,
        port=port,
        obs=obs,
        access_log=access_log,
        faults=faults,
        limits=limits,
    )
