"""Opt-in per-stage cProfile support for ``repro analyze --profile``.

The engine runs 43 stages, some in pool workers; when one of them is
slow the span tree says *which* stage but not *why*.  Profiling wraps
each stage callable in :mod:`cProfile` and reduces the result to the
top-N rows by cumulative time — as plain dicts, because the rows must
pickle cleanly from a ``ProcessPoolExecutor`` worker back to the
coordinator (a ``pstats.Stats`` object does not).

The report artifact is deterministic in *structure* (stage names, row
fields, ordering rule) but not in timings — profiling is a diagnostic
lens, not part of the byte-identity contract.
"""

from __future__ import annotations

import cProfile
import json
import pstats
from pathlib import Path

from repro.fsutil import atomic_write_text

__all__ = [
    "profiled_call",
    "profile_rows",
    "write_profile_report",
]

#: Rows kept per stage in the report.
DEFAULT_TOP_N = 25


def profiled_call(fn, *args, top_n: int = DEFAULT_TOP_N, **kwargs):
    """Run ``fn(*args, **kwargs)`` under cProfile.

    Returns ``(result, rows)`` where ``rows`` is the top-N row list
    from :func:`profile_rows` — picklable, so this works inside pool
    workers.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
    return result, profile_rows(profiler, top_n=top_n)


def profile_rows(profiler: cProfile.Profile, top_n: int = DEFAULT_TOP_N) -> list[dict]:
    """Top-N functions by cumulative time, as plain dicts."""
    stats = pstats.Stats(profiler)
    rows = []
    for (filename, lineno, funcname), (cc, nc, tottime, cumtime, _callers) in (
        stats.stats.items()  # type: ignore[attr-defined]
    ):
        rows.append(
            {
                "func": f"{filename}:{lineno}:{funcname}",
                "ncalls": nc,
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
            }
        )
    rows.sort(key=lambda r: (-r["cumtime"], r["func"]))
    return rows[:top_n]


def write_profile_report(
    path: str | Path, profiles: dict[str, list[dict]], *, run_id: str | None = None
) -> Path:
    """Write the JSON profile artifact (stages sorted, keys sorted)."""
    path = Path(path)
    payload = {
        "schema_version": 1,
        "run_id": run_id,
        "profiles": {stage: profiles[stage] for stage in sorted(profiles)},
    }
    atomic_write_text(
        path, json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )
    return path
