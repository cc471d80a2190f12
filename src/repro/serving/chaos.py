"""Seeded chaos for the analytics *read* path.

The crawler's chaos machinery (:mod:`repro.steamapi.faults`) proved the
write path: a hardened crawler produces a byte-identical dataset
through a storm of injected upstream failures.  This module points the
same discipline at the serving tier.  :class:`ChaosDispatch` wraps any
``dispatch(path, params) -> payload`` callable and, driven by the
shared fault core (:mod:`repro.faults`), injects the failure modes an
overloaded read path sees:

- **stalls** — the handler sleeps before serving, burning the
  request's deadline budget (slow store, GC pause, noisy neighbor);
  a stalled request that still has budget left completes *correctly*,
  one that ran dry gets its typed 504 from the next layer boundary,
- **mid-body aborts** — the handler computes the real payload, then
  raises :class:`~repro.steamapi.faults.AbortedResponse`; the HTTP
  server replays the abort on the real socket (full ``Content-Length``
  promised, a prefix written, connection closed),
- **crashes** — an untyped exception escapes the handler, exercising
  the opaque-500 containment path.

Faults are *cooperative and deterministic*: the fault tape is a pure
function of the plan seed and the request number, and injected stalls
never corrupt a response — they only spend time — so every accepted
(HTTP 200) response under chaos is byte-identical to an unloaded run.
That invariant is what ``tests/serving/test_chaos.py`` asserts.

:func:`run_storm` is the load half of the harness: a seeded
multi-client request storm against a live server, returning per-status
tallies and response bodies so tests and
``benchmarks/bench_serving_overload.py`` can assert shed behavior and
byte-identity with the same code.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import ClassVar

from repro.faults import FaultPlan, RequestFaults, Spec, draw
from repro.serving.api import AnalyticsService
from repro.steamapi.faults import AbortedResponse

__all__ = [
    "ServingFaultSpec",
    "ChaosDispatch",
    "ChaosAnalyticsService",
    "InjectedCrash",
    "StormResult",
    "run_storm",
]


class InjectedCrash(RuntimeError):
    """An untyped handler failure: must surface as an opaque 500."""


@dataclass(frozen=True)
class ServingFaultSpec(Spec):
    """Per-request fault probabilities for one route prefix.

    Probabilities are slices of one uniform draw (sum must stay <= 1);
    ``burst > 1`` turns a triggered fault into an outage of that many
    consecutive requests.
    """

    KINDS: ClassVar = ("stall", "abort", "crash")
    SECONDS: ClassVar = ("stall_range",)

    stall: float = 0.0
    abort: float = 0.0
    crash: float = 0.0
    #: Stall durations are drawn uniformly from this range (seconds).
    stall_range: tuple[float, float] = (0.005, 0.05)
    #: Requests per aligned fault block (1 = independent).
    burst: int = 1


class ChaosDispatch(RequestFaults):
    """Wrap a dispatch callable, deterministically injecting faults.

    Probe routes are exempt (and take no request number): chaos must
    never make ``/healthz`` or ``/readyz`` lie — the point is to prove
    the *data* path degrades gracefully while the probes keep telling
    the truth.

    Thread-safe, so the wrapper sits directly under the threading HTTP
    server.  A stall sleeps outside any lock — it must slow one request,
    not serialize the server.
    """

    def __init__(
        self,
        inner,
        plan: FaultPlan,
        obs=None,
        sleep=time.sleep,
    ) -> None:
        super().__init__(
            plan,
            ServingFaultSpec.KINDS,
            obs.counter(
                "serving_injected_faults",
                "Read-path faults injected by the chaos wrapper, by kind",
                ("kind",),
            )
            if obs is not None
            else None,
        )
        self.inner = inner
        self._sleep = sleep

    def __call__(self, path: str, params: dict) -> dict:
        return self.wrap(path, lambda: self.inner(path, params))

    def wrap(self, path: str, inner, builder=None) -> dict:
        """Run ``inner()`` under this request's fault decision.

        The seam that lets :class:`ChaosAnalyticsService` inject
        *inside* admission control (``inner`` closes over the route
        match), while :meth:`__call__` wraps a plain dispatch callable
        from the outside.  ``builder``, the request's record when one
        is being built, gets the injected fault's kind.
        """
        if path in (
            "/healthz",
            "/readyz",
            "/metrics",
            "/debug/requests",
            "/debug/slo",
        ):
            return inner()
        kind, spec, aux = self.next_fault(path)
        if kind is not None and builder is not None:
            # Tag the request record so a chaos storm's records say
            # which fault produced each 499/500/504.
            builder.fault = kind
        if kind == "crash":
            raise InjectedCrash(f"injected handler crash on {path}")
        if kind == "stall":
            # Spend budget, then serve; correctness is untouched, only
            # time.  Downstream deadline checks decide if it was fatal.
            lo, hi = spec.stall_range
            self._sleep(lo + (hi - lo) * aux)
            return inner()
        payload = inner()
        if kind == "abort":
            body = json.dumps(payload).encode("utf-8")
            cut = max(1, int(aux * (len(body) - 1)))
            raise AbortedResponse(body, cut)
        return payload


class ChaosAnalyticsService(AnalyticsService):
    """An :class:`AnalyticsService` whose inner serve path is
    chaos-wrapped.

    Faults inject *inside* admission control and the deadline scope —
    exactly where a slow store scan or a crashing handler lives — so a
    stalled request holds its in-flight slot (storms genuinely overrun
    capacity and shed), blows the ambient deadline into a typed 504 at
    the next layer boundary, and feeds the route's circuit breaker.
    Probe routes never reach the chaos seam: ``dispatch`` answers them
    before admission.
    """

    def __init__(
        self,
        store,
        plan: FaultPlan,
        sleep=time.sleep,
        **kwargs,
    ) -> None:
        super().__init__(store, **kwargs)
        self.chaos = ChaosDispatch(
            None, plan, obs=kwargs.get("obs"), sleep=sleep
        )

    def _serve(self, path, params, match, method, builder):
        serve = super()._serve
        return self.chaos.wrap(
            path,
            lambda: serve(path, params, match, method, builder),
            builder,
        )


# -- the storm ----------------------------------------------------------------


@dataclass
class StormResult:
    """Everything a storm saw, for assertions and benchmark metrics."""

    #: HTTP status → count across all clients.
    status_counts: dict[int, int]
    #: ``(path, body_bytes)`` for every 200, in no particular order.
    accepted: list[tuple[str, bytes]]
    #: ``Retry-After`` header values observed on 429s.
    retry_after: list[float]
    #: Wall-clock latencies (seconds) of accepted requests only.
    accepted_latencies: list[float]
    #: Transport-level failures (aborted bodies, resets), by exception
    #: class name.
    transport_errors: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.status_counts.values()) + sum(
            self.transport_errors.values()
        )

    def count(self, status: int) -> int:
        return self.status_counts.get(status, 0)


def run_storm(
    host: str,
    port: int,
    paths: list[str],
    clients: int = 8,
    requests_per_client: int = 25,
    seed: int = 0,
    headers: dict[str, str] | None = None,
    timeout: float = 30.0,
) -> StormResult:
    """Hammer a server with ``clients`` concurrent keep-alive clients.

    Client ``c`` cycles through ``paths`` from the offset
    ``draw(seed, c)`` picks, so the exact request mix is reproducible
    and every path is requested about equally often.
    No retries: a shed request stays shed.  A shed client waits out
    its ``Retry-After`` hint before its next request, as a polite
    client would, instead of spending its budget on sub-millisecond
    429s while the admitted requests still hold their slots.
    """
    status_counts: dict[int, int] = {}
    accepted: list[tuple[str, bytes]] = []
    retry_after: list[float] = []
    latencies: list[float] = []
    transport_errors: dict[str, int] = {}
    lock = threading.Lock()

    def client(index: int) -> None:
        offset = int(draw(seed, index)[0] * len(paths))
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            for i in range(requests_per_client):
                path = paths[(offset + i) % len(paths)]
                start = time.monotonic()
                try:
                    conn.request("GET", path, headers=headers or {})
                    response = conn.getresponse()
                    body = response.read()
                except Exception as exc:  # aborted body, reset, timeout
                    with lock:
                        name = type(exc).__name__
                        transport_errors[name] = (
                            transport_errors.get(name, 0) + 1
                        )
                    conn.close()
                    conn = http.client.HTTPConnection(
                        host, port, timeout=timeout
                    )
                    continue
                elapsed = time.monotonic() - start
                pause = 0.0
                with lock:
                    status_counts[response.status] = (
                        status_counts.get(response.status, 0) + 1
                    )
                    if response.status == 200:
                        accepted.append((path, body))
                        latencies.append(elapsed)
                    elif response.status == 429:
                        hint = response.getheader("Retry-After")
                        if hint is not None:
                            pause = float(hint)
                            retry_after.append(pause)
                if pause:
                    time.sleep(pause)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return StormResult(
        status_counts=status_counts,
        accepted=accepted,
        retry_after=retry_after,
        accepted_latencies=latencies,
        transport_errors=transport_errors,
    )
