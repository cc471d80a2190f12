"""Admission control and circuit breaking for the analytics read path.

The serving tier's overload story (DESIGN.md §14) in one sentence:
**shed excess load fast at the door, time out what got in, and stop
knocking on routes that keep blowing their deadlines.**

:class:`AdmissionController` is the door.  Every dispatch first asks
``admit(route)``; the controller keeps one global in-flight budget plus
optional per-route concurrency limits, and a request that would exceed
either is rejected *immediately* with a typed
:class:`~repro.steamapi.errors.OverloadedError` (HTTP 429 +
``Retry-After``).  Rejection is O(1) — a lock, two dict reads, a
counter — so under a storm the server spends its time serving the
admitted requests, not queueing the doomed ones.  ``Retry-After`` hints
carry *seeded* jitter (``random.Random(config.seed)``): storms in tests
and benchmarks produce the same hint sequence every run, and real
clients still get decorrelated backoff.

Health probes never shed: ``/healthz`` and ``/metrics`` bypass the
controller entirely (the service and HTTP layer route them before
admission), because an overloaded server that fails its liveness probe
gets restarted into an even worse storm.

:class:`CircuitBreaker` is the per-route fuse.  ``trip_after``
consecutive deadline blowouts open the breaker: requests to that route
are shed (429, ``Retry-After`` = remaining cooldown) without touching
the store.  After ``cooldown`` seconds the breaker goes *half-open* and
admits exactly one probe; a probe that completes closes the breaker, a
probe that times out re-opens it for another cooldown, and a probe that
fails for any *other* reason (a 404, a handler bug) releases the probe
slot without moving the state, so the next request can probe again.
The state machine is driven by the injectable clock, so tests walk it
with a :class:`~repro.obs.clock.FakeClock` instead of sleeping.

Everything is instrumented: an in-flight gauge, shed counters by route
and reason (``capacity`` / ``route`` / ``breaker``), deadline-timeout
counters, breaker transition counters, and a queue-depth histogram
observed at every admission decision.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.obs import Obs
from repro.obs.reqlog import RecordBuilder
from repro.steamapi.errors import OverloadedError

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


@dataclass(frozen=True)
class AdmissionConfig:
    """Budgets and breaker tuning for one :class:`AdmissionController`."""

    #: Total concurrent requests allowed past admission.
    max_inflight: int = 64
    #: Per-route-template concurrency caps (missing routes share only
    #: the global budget).
    per_route: Mapping[str, int] = field(default_factory=dict)
    #: ``Retry-After`` hints for shed requests are drawn uniformly from
    #: this range (seconds) by the seeded jitter RNG.
    retry_after: tuple[float, float] = (0.05, 0.5)
    #: Seed for the jitter RNG — same seed, same hint sequence.
    seed: int = 0
    #: Consecutive deadline blowouts that trip a route's breaker;
    #: ``0`` disables circuit breaking.
    breaker_threshold: int = 5
    #: Seconds an open breaker sheds before letting a probe through.
    breaker_cooldown: float = 1.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        for route, limit in self.per_route.items():
            if limit < 1:
                raise ValueError(
                    f"per-route limit for {route!r} must be >= 1"
                )
        lo, hi = self.retry_after
        if not 0 <= lo <= hi:
            raise ValueError("retry_after range must satisfy 0 <= lo <= hi")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be >= 0")
        if self.breaker_cooldown <= 0:
            raise ValueError("breaker_cooldown must be > 0")


class CircuitBreaker:
    """Closed → open → half-open fuse for one route.

    Not thread-safe on its own: the owning controller calls every
    method under its admission lock.
    """

    def __init__(
        self,
        threshold: int,
        cooldown: float,
        clock: Callable[[], float],
    ) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self.state = BREAKER_CLOSED
        self._consecutive_timeouts = 0
        self._opened_until = 0.0
        self._probe_inflight = False

    def allow(self) -> tuple[bool, float]:
        """Admission verdict: ``(allowed, retry_after_if_not)``."""
        if self.threshold == 0 or self.state == BREAKER_CLOSED:
            return True, 0.0
        now = self._clock()
        if self.state == BREAKER_OPEN:
            if now < self._opened_until:
                return False, max(0.0, self._opened_until - now)
            self.state = BREAKER_HALF_OPEN
            self._probe_inflight = False
        # Half-open: exactly one probe at a time feels the route out.
        if self._probe_inflight:
            return False, self.cooldown
        self._probe_inflight = True
        return True, 0.0

    def record_success(self) -> str | None:
        """A request finished cleanly; returns the new state on change."""
        self._consecutive_timeouts = 0
        if self.state != BREAKER_CLOSED:
            self.state = BREAKER_CLOSED
            self._probe_inflight = False
            return BREAKER_CLOSED
        return None

    def record_timeout(self) -> str | None:
        """A request blew its deadline; returns the new state on change."""
        if self.threshold == 0:
            return None
        self._consecutive_timeouts += 1
        tripped = (
            self.state == BREAKER_HALF_OPEN
            or self._consecutive_timeouts >= self.threshold
        )
        if tripped:
            self.state = BREAKER_OPEN
            self._opened_until = self._clock() + self.cooldown
            self._consecutive_timeouts = 0
            self._probe_inflight = False
            return BREAKER_OPEN
        return None

    def record_abandoned(self) -> None:
        """The admitted request failed for a non-deadline reason.

        A 404 or a handler bug says nothing about the route's latency,
        so neither the state nor the timeout streak moves — but a
        half-open probe slot the request held is released, otherwise
        one failing probe would wedge the route open forever (nothing
        else could ever be admitted to close or re-open it).
        """
        self._probe_inflight = False


class AdmissionController:
    """Bounded-concurrency door in front of the serving dispatch."""

    def __init__(
        self,
        config: AdmissionConfig | None = None,
        obs: Obs | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.config = config or AdmissionConfig()
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._rng = random.Random(self.config.seed)
        self._inflight = 0
        self._route_inflight: dict[str, int] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self.shed_counts: dict[str, int] = {
            "capacity": 0,
            "route": 0,
            "breaker": 0,
        }
        self.admitted = 0
        self._m_inflight = self._m_shed = None
        self._m_timeouts = self._m_transitions = self._m_depth = None
        if obs is not None:
            self._m_inflight = obs.gauge(
                "serving_inflight",
                "Requests currently past admission, in dispatch",
            )
            self._m_shed = obs.counter(
                "serving_shed",
                "Requests shed by admission control, by route and reason",
                ("route", "reason"),
            )
            self._m_timeouts = obs.counter(
                "serving_deadline_timeouts",
                "Requests that blew their deadline, by route",
                ("route",),
            )
            self._m_transitions = obs.counter(
                "serving_breaker_transitions",
                "Circuit breaker state changes, by route and new state",
                ("route", "state"),
            )
            self._m_depth = obs.histogram(
                "serving_queue_depth",
                "In-flight depth observed at each admission decision",
                buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256),
            )

    # -- internals ------------------------------------------------------------

    def _breaker(self, route: str) -> CircuitBreaker:
        breaker = self._breakers.get(route)
        if breaker is None:
            breaker = self._breakers[route] = CircuitBreaker(
                self.config.breaker_threshold,
                self.config.breaker_cooldown,
                self._clock,
            )
        return breaker

    def _jitter(self) -> float:
        lo, hi = self.config.retry_after
        return self._rng.uniform(lo, hi)

    def _shed(self, route: str, reason: str, retry_after: float) -> None:
        self.shed_counts[reason] += 1
        if self._m_shed is not None:
            self._m_shed.inc(route=route, reason=reason)
        raise OverloadedError(
            f"overloaded: shed by {reason} guard on {route}",
            retry_after=retry_after,
            reason=reason,
        )

    # -- the admission decision ----------------------------------------------

    @contextmanager
    def admit(self, route: str, builder: RecordBuilder | None = None):
        """Admit one request or shed it with a typed 429.

        Usage::

            with admission.admit(route):
                ... serve the request ...

        Raises :class:`~repro.steamapi.errors.OverloadedError` (and
        counts the shed) when the breaker is open or a budget is full;
        otherwise holds one in-flight slot for the duration of the
        block.  ``builder``, the request's record when one is being
        built, gets the breaker state, the decision, and — lock wait
        included — the decision's time in its ``admission`` layer, so
        queue pressure at the door is attributable per request.
        """
        if builder is None:
            self._enter(route, None)
        else:
            builder.timed("admission_s", self._enter, route, builder)
        try:
            yield
        finally:
            with self._lock:
                self._inflight -= 1
                self._route_inflight[route] -= 1
                if self._m_inflight is not None:
                    self._m_inflight.set(self._inflight)

    def _enter(self, route: str, builder: RecordBuilder | None) -> None:
        """Take one in-flight slot for ``route`` or shed."""
        config = self.config
        with self._lock:
            if self._m_depth is not None:
                self._m_depth.observe(self._inflight)
            # Budget checks run before the breaker: allow() may consume
            # the single half-open probe slot, so nothing that can shed
            # is allowed after it — a later shed would leak the slot and
            # wedge the route open with no probe ever admitted.
            if self._inflight >= config.max_inflight:
                self._shed(route, "capacity", self._jitter())
            route_limit = config.per_route.get(route)
            route_inflight = self._route_inflight.get(route, 0)
            if route_limit is not None and route_inflight >= route_limit:
                self._shed(route, "route", self._jitter())
            breaker = self._breaker(route)
            if builder is not None:
                builder.breaker = breaker.state
            allowed, cooldown_left = breaker.allow()
            if not allowed:
                self._shed(route, "breaker", cooldown_left + self._jitter())
            self._inflight += 1
            self._route_inflight[route] = route_inflight + 1
            self.admitted += 1
            if builder is not None:
                builder.admission = "admitted"
            if self._m_inflight is not None:
                self._m_inflight.set(self._inflight)

    # -- breaker feedback ----------------------------------------------------

    def record_success(self, route: str) -> None:
        """The route served within budget; resets/closes its breaker."""
        with self._lock:
            changed = self._breaker(route).record_success()
        if changed is not None and self._m_transitions is not None:
            self._m_transitions.inc(route=route, state=changed)

    def record_timeout(self, route: str) -> None:
        """The route blew a deadline; may trip its breaker."""
        with self._lock:
            changed = self._breaker(route).record_timeout()
        if self._m_timeouts is not None:
            self._m_timeouts.inc(route=route)
        if changed is not None and self._m_transitions is not None:
            self._m_transitions.inc(route=route, state=changed)

    def record_abandoned(self, route: str) -> None:
        """The route failed for a non-deadline reason; frees any
        half-open probe slot the request held without moving the
        breaker state (see :meth:`CircuitBreaker.record_abandoned`)."""
        with self._lock:
            self._breaker(route).record_abandoned()

    # -- introspection -------------------------------------------------------

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def breaker_state(self, route: str) -> str:
        """One route's breaker state (``closed`` when never tripped)."""
        with self._lock:
            breaker = self._breakers.get(route)
            return breaker.state if breaker is not None else BREAKER_CLOSED

    def breaker_states(self) -> dict[str, str]:
        """Route → breaker state, for ``/readyz`` payloads and tests."""
        with self._lock:
            return {
                route: breaker.state
                for route, breaker in sorted(self._breakers.items())
            }

    def stats(self) -> dict:
        with self._lock:
            return {
                "inflight": self._inflight,
                "admitted": self.admitted,
                "shed": dict(self.shed_counts),
                "breakers_open": sum(
                    1
                    for b in self._breakers.values()
                    if b.state != BREAKER_CLOSED
                ),
            }
