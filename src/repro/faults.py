"""The one fault-decision core behind every chaos injector.

Three layers inject seeded faults: the crawler's transport
(:mod:`repro.steamapi.faults`), the serving tier's read path
(:mod:`repro.serving.chaos`) and the analysis engine's workers
(:mod:`repro.engine.faults`).  Each keeps only its fault *effects*;
*which* fault fires is decided here, and nowhere else:

- :func:`draw` hashes ``(seed, *parts)`` with sha256 into two uniforms.
  A pure hash, not RNG state, so a decision survives process restarts
  (engine workers die on purpose) and does not depend on the order in
  which concurrent callers arrive.
- :class:`Spec` is the base of every layer's spec: one validity check
  and one :func:`pick` walk over the per-kind probability bands.
- :class:`FaultPlan` maps keys (request paths, stage names) to specs by
  longest prefix.
- :class:`RequestFaults` is the per-request tape of the two request
  injectors: request ``n`` is decided by ``draw(seed, n // burst)``, so
  a burst is an aligned block of ``burst`` consecutive requests and the
  tape is a pure function of ``(seed, n)``.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import ClassVar

__all__ = ["draw", "pick", "Spec", "FaultPlan", "RequestFaults"]


def draw(seed: int, *parts) -> tuple[float, float]:
    """Two pure uniforms in [0, 1): ``(u, aux)`` for one decision.

    ``u`` picks the fault kind; ``aux`` sizes it (a retry hint, a
    stall, a cut point).  Both come from one sha256 of
    ``"seed|part|..."``.
    """
    digest = hashlib.sha256(
        "|".join(map(str, (seed, *parts))).encode("utf-8")
    ).digest()
    return (
        int.from_bytes(digest[:8], "big") / float(1 << 64),
        int.from_bytes(digest[8:16], "big") / float(1 << 64),
    )


def pick(spec: Spec, u: float) -> str | None:
    """The kind whose probability band holds ``u``, if any.

    Bands are laid out in ``spec.KINDS`` order; past the last band the
    request or attempt goes through untouched.
    """
    edge = 0.0
    for kind in spec.KINDS:
        edge += getattr(spec, kind)
        if u < edge:
            return kind
    return None


@dataclass(frozen=True)
class Spec:
    """Base of every layer's fault spec.

    A subclass declares one probability field per name in ``KINDS``
    (band order), and names in ``SECONDS`` its durations: a float or a
    ``(lo, hi)`` range.  Construction rejects rates summing outside
    [0, 1], ``burst < 1`` and any duration not ``0 <= lo <= hi``.
    """

    KINDS: ClassVar[tuple[str, ...]] = ()
    SECONDS: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.total_rate <= 1.0:
            raise ValueError("fault probabilities must sum to within [0, 1]")
        if getattr(self, "burst", 1) < 1:
            raise ValueError("burst must be >= 1")
        for name in self.SECONDS:
            value = getattr(self, name)
            lo, hi = value if isinstance(value, tuple) else (value, value)
            if not 0 <= lo <= hi:
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi")

    @property
    def total_rate(self) -> float:
        return sum(getattr(self, kind) for kind in self.KINDS)

    @classmethod
    def uniform(cls, rate: float, **kwargs) -> Spec:
        """Spread ``rate`` evenly over every kind."""
        share = rate / len(cls.KINDS)
        return cls(**dict.fromkeys(cls.KINDS, share), **kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded recipe of which faults to inject where.

    ``overrides`` replaces ``default`` by key prefix (longest prefix
    wins), so a plan can e.g. storm only the detail endpoints, or crash
    only the ``table4:`` shards.  A key with no spec is never faulted.
    Immutable and picklable: engine plans cross the process boundary
    with every task.
    """

    seed: int = 0
    default: Spec | None = None
    overrides: dict[str, Spec] = field(default_factory=dict)

    def spec_for(self, key: str) -> Spec | None:
        best = max(
            (prefix for prefix in self.overrides if key.startswith(prefix)),
            key=len,
            default=None,
        )
        return self.default if best is None else self.overrides[best]


class RequestFaults:
    """The per-request fault tape of a request-stream injector.

    Requests take sequence numbers ``n`` in arrival order; request ``n``
    gets ``draw(seed, n // spec.burst)``.  Thread-safe, and the tape by
    ``n`` is the same however many threads feed it.  Counters:
    ``requests_seen``, ``fault_counts`` by kind, ``total_injected``, and
    the optional obs ``counter`` (labelled by ``kind``).
    """

    def __init__(
        self, plan: FaultPlan, kinds: tuple[str, ...], counter=None
    ) -> None:
        self.plan = plan
        self.requests_seen = 0
        self.fault_counts: dict[str, int] = dict.fromkeys(kinds, 0)
        self._counter = counter
        self._lock = threading.Lock()

    @property
    def total_injected(self) -> int:
        return sum(self.fault_counts.values())

    def next_fault(self, path: str) -> tuple[str | None, Spec | None, float]:
        """Take the next request number; return ``(kind, spec, aux)``."""
        spec = self.plan.spec_for(path)
        with self._lock:
            n = self.requests_seen
            self.requests_seen += 1
            if spec is None:
                return None, None, 0.0
            u, aux = draw(self.plan.seed, n // spec.burst)
            kind = pick(spec, u)
            if kind is not None:
                self.fault_counts[kind] += 1
        if kind is not None and self._counter is not None:
            self._counter.inc(kind=kind)
        return kind, spec, aux
