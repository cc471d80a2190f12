"""``repro.engine`` — sharded parallel stage execution with memoization.

The paper's analysis pipeline (Tables 1–5, Figures 1–12, the §4–§9
statistics) is embarrassingly parallel: every table and figure is a
pure function of the dataset plus a small config slice.  This package
turns that observation into infrastructure:

- :class:`~repro.engine.stage.Stage` /
  :class:`~repro.engine.stage.StageGraph` — declared stages with
  explicit inputs (dataset, config keys, auxiliary inputs, upstream
  stages), validated into a DAG;
- :class:`~repro.engine.cache.StageCache` — a content-addressed
  on-disk memo of stage results, keyed by (dataset fingerprint, stage
  code version, config hash) with checksummed entries so corruption
  degrades to a recompute, never a wrong answer;
- :class:`~repro.engine.executor.Engine` — runs a graph serially or
  across a process pool (``jobs=N``); parallel output is byte-identical
  to serial because stages are pure and the assembly order is fixed by
  the graph, not by completion order.  Parallel execution is fault
  tolerant: crashed or hung workers trigger a bounded pool rebuild and
  resubmit, repeated pool loss falls back to serial execution, and
  deterministic stage failures surface as one typed
  :class:`~repro.engine.executor.StageFailedError` (DESIGN.md §9);
- :mod:`~repro.engine.faults` — seeded crash/hang/error/slow fault
  injection into worker tasks (an :class:`EngineFaultSpec` per stage
  prefix in a :class:`repro.faults.FaultPlan`), so the recovery paths
  above are deterministically testable.

:mod:`repro.core.study` expresses the full study as a stage graph on
this engine; ``condensing-steam analyze --jobs/--cache-dir/--no-cache``
exposes it on the command line.  See DESIGN.md §8 for the architecture
and the determinism contract.
"""

from __future__ import annotations

from repro.engine.cache import CacheStats, StageCache
from repro.engine.executor import Engine, EngineRun, StageFailedError
from repro.engine.faults import EngineFaultSpec, InjectedFaultError
from repro.engine.fingerprint import (
    content_hash,
    select_column_fingerprints,
    source_hash,
    stage_key,
)
from repro.engine.stage import Stage, StageContext, StageGraph

__all__ = [
    "Stage",
    "StageContext",
    "StageGraph",
    "StageCache",
    "CacheStats",
    "Engine",
    "EngineRun",
    "StageFailedError",
    "EngineFaultSpec",
    "InjectedFaultError",
    "content_hash",
    "select_column_fingerprints",
    "source_hash",
    "stage_key",
]
