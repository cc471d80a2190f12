"""Deterministic fault injection for the analysis engine.

The crawler's chaos stack (:mod:`repro.steamapi.faults`) exists because
the paper's collection ran for months against an unreliable API; the
analysis engine has the analogous operational risk — a worker process
OOM-killed mid-stage, a wedged native call, a box under memory pressure
running everything at a crawl.  This module injects exactly those
failure modes into :class:`~repro.engine.executor.Engine` workers,
driven by a seeded plan, so the engine's recovery paths (pool rebuild,
bounded retry, watchdog, serial fallback, quarantine) are themselves
deterministically testable.

Failure modes, in the order the decision draw considers them
(:attr:`EngineFaultSpec.KINDS`):

- ``crash``  — the worker process dies hard (``os._exit``), breaking
  the pool exactly like an OOM kill or segfault;
- ``hang``   — the stage stalls for ``hang_seconds`` before computing,
  tripping the engine's stage-timeout watchdog;
- ``error``  — the stage raises :class:`InjectedFaultError`, modelling
  a deterministic stage bug (exercises the quarantine path);
- ``slow``   — the stage sleeps ``slow_seconds`` then computes
  normally (latency without failure).

Every decision is the shared core's pure hash draw
(:func:`repro.faults.draw`) of ``(plan seed, stage name, attempt
number)``: worker processes come and go (that is the point), so no
in-process state could survive a pool rebuild.  The parent tracks
attempt numbers and ships them with each task, so the same plan
produces the same fault sequence on every run, and a retried attempt
rolls a fresh (but still deterministic) draw.  By default only attempt
0 is eligible for faults (``max_faulted_attempts=1``), which guarantees
a bounded retry converges and the recovered run stays byte-identical
to a clean one.

Faults are injected *in the worker task wrapper only*: serial execution
(including the engine's serial fallback) never consults the plan, since
a crash fault in the parent would kill the run the machinery exists to
save.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import ClassVar

from repro.faults import FaultPlan, Spec, draw, pick

__all__ = [
    "EngineFaultSpec",
    "InjectedFaultError",
    "decide",
    "inject",
]


class InjectedFaultError(RuntimeError):
    """Raised inside a worker by an ``error`` fault."""


@dataclass(frozen=True)
class EngineFaultSpec(Spec):
    """Per-stage fault probabilities (slices of one draw).

    The probabilities must sum to <= 1; the remainder is the chance the
    attempt runs untouched.  ``max_faulted_attempts`` bounds which
    attempt numbers are eligible: the default of 1 faults only a
    stage's first attempt, so retries always converge.
    """

    KINDS: ClassVar = ("crash", "hang", "error", "slow")
    SECONDS: ClassVar = ("hang_seconds", "slow_seconds")

    crash: float = 0.0
    hang: float = 0.0
    error: float = 0.0
    slow: float = 0.0
    #: How long a ``hang`` stalls before proceeding.  Keep this modest:
    #: an abandoned hung worker lives until the sleep expires.
    hang_seconds: float = 30.0
    #: How long a ``slow`` stage sleeps before computing.
    slow_seconds: float = 0.05
    #: Attempts < this value are eligible for faults (1 = first only).
    max_faulted_attempts: int = 1


def decide(plan: FaultPlan, stage: str, attempt: int) -> str | None:
    """The fault kind injected for this attempt, if any.

    Pure: callable identically from the parent (tests predicting the
    fault sequence) and the worker (actually injecting it).
    """
    spec = plan.spec_for(stage)
    if spec is None or attempt >= spec.max_faulted_attempts:
        return None
    return pick(spec, draw(plan.seed, stage, attempt)[0])


def inject(plan: FaultPlan, stage: str, attempt: int) -> None:
    """Worker-side: act on the decision for this attempt."""
    kind = decide(plan, stage, attempt)
    if kind == "crash":
        # Bypass every finally/atexit, like a SIGKILL or OOM kill.
        os._exit(1)
    if kind == "error":
        raise InjectedFaultError(
            f"injected deterministic failure in stage {stage!r} "
            f"(attempt {attempt})"
        )
    if kind in ("hang", "slow"):
        # Sleep, then compute; a long enough hang trips the watchdog.
        time.sleep(getattr(plan.spec_for(stage), f"{kind}_seconds"))
