"""Deterministic fault injection for chaos-testing the crawler.

The paper's crawl ran for six months against a flaky, rate-limited API;
the engineering artifact that survives that is the retry / checkpoint /
throttle stack, and nothing exercises that stack unless something
injects the failures.  :class:`FaultInjectingTransport` wraps any
:class:`~repro.steamapi.transport.Transport` and converts a planned
fraction of requests into the failure modes a real crawl sees:

- HTTP 429 rate-limit responses with varying ``retry_after`` hints,
- transient 5xx server errors,
- request timeouts,
- malformed / truncated JSON payloads,
- bursts of any of the above (``burst`` consecutive requests fail the
  same way, modelling an upstream outage rather than independent coin
  flips).

Every injected fault is a *retryable* typed error, so a correctly
hardened crawler must produce a dataset byte-identical to one crawled
through a clean transport — which is exactly what
``tests/crawler/test_chaos.py`` asserts.  Which request fails, and how,
is decided by the shared core (:mod:`repro.faults`): the fault tape is
a pure function of the plan seed and the request number, so chaos tests
are reproducible rather than flaky.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar

from repro.faults import FaultPlan, RequestFaults, Spec
from repro.steamapi.errors import (
    ApiError,
    MalformedResponseError,
    RateLimitedError,
    RequestTimeoutError,
)
from repro.steamapi.transport import Transport

__all__ = [
    "FaultSpec",
    "FaultInjectingTransport",
    "AbortedResponse",
]


class AbortedResponse(Exception):
    """An injected mid-body abort: the server sent response headers
    promising ``len(body)`` bytes, wrote only ``cut`` of them, then
    closed the connection — the classic "upstream died mid-transfer".

    Deliberately *not* an :class:`~repro.steamapi.errors.ApiError`:
    there is no status code to map, the fault lives below the JSON
    protocol.  The HTTP handler catches it and replays the abort on the
    real socket (see :mod:`repro.steamapi.http_server`); the serving
    chaos harness (:mod:`repro.serving.chaos`) raises it.
    """

    def __init__(self, body: bytes, cut: int) -> None:
        super().__init__(f"aborted response body ({cut}/{len(body)} bytes)")
        self.body = body
        self.cut = cut


@dataclass(frozen=True)
class FaultSpec(Spec):
    """Per-request fault probabilities for one endpoint (or the default).

    Probabilities are slices of one uniform draw, so their sum must stay
    <= 1; the remainder is the chance the request goes through
    untouched.
    """

    KINDS: ClassVar = ("rate_limit", "server_error", "timeout", "malformed")
    SECONDS: ClassVar = ("retry_after",)

    rate_limit: float = 0.0
    server_error: float = 0.0
    timeout: float = 0.0
    malformed: float = 0.0
    #: ``retry_after`` hints are drawn uniformly from this range.
    retry_after: tuple[float, float] = (0.05, 2.0)
    #: Requests per aligned fault block (1 = independent).
    burst: int = 1


class FaultInjectingTransport(RequestFaults):
    """Wrap a transport, deterministically injecting planned faults.

    Thread-safe, so the wrapper can sit under the threading HTTP server
    or a pipelined crawl.  Besides the :class:`~repro.faults.RequestFaults`
    counters, ``faults_by_endpoint`` tallies injected faults by request
    path.
    """

    def __init__(
        self, inner: Transport, plan: FaultPlan, obs=None
    ) -> None:
        super().__init__(
            plan,
            FaultSpec.KINDS,
            obs.registry.counter(
                "steamapi_injected_faults",
                "Faults injected by the chaos transport, by kind",
                ("kind",),
            )
            if obs is not None
            else None,
        )
        self.inner = inner
        self.faults_by_endpoint: dict[str, int] = {}

    def request(self, path: str, params: dict) -> dict:
        kind, spec, aux = self.next_fault(path)
        if kind is None:
            return self.inner.request(path, params)
        with self._lock:
            self.faults_by_endpoint[path] = (
                self.faults_by_endpoint.get(path, 0) + 1
            )
        if kind == "rate_limit":
            lo, hi = spec.retry_after
            raise RateLimitedError(
                "injected rate limit", retry_after=lo + (hi - lo) * aux
            )
        if kind == "server_error":
            raise ApiError("injected transient server error")
        if kind == "timeout":
            raise RequestTimeoutError("injected request timeout")
        # Malformed: serve a real payload truncated mid-stream.  The
        # inner request still happens (idempotent), as in real life
        # where the server did the work but the bytes never arrived
        # whole.  Any proper prefix of a JSON object is invalid JSON.
        payload = self.inner.request(path, params)
        body = json.dumps(payload).encode("utf-8")
        cut = max(1, int(aux * (len(body) - 1)))
        raise MalformedResponseError(
            f"injected truncated payload ({cut}/{len(body)} bytes)",
            body=body[:cut],
        )
