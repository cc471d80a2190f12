"""Serial and process-parallel execution of a stage graph.

The engine runs every stage of a :class:`~repro.engine.stage.StageGraph`
exactly once, in dependency order, consulting an optional
:class:`~repro.engine.cache.StageCache` before computing anything.

Determinism contract: stage functions are pure functions of their
declared inputs, results are keyed and assembled **by stage name**, and
the graph fixes the merge order — so the output is byte-identical
whether stages ran serially, across 4 processes, straight out of the
cache, or through any number of crash recoveries.  The scheduler only
decides *when* a stage runs, never what it computes.

Fault tolerance (DESIGN.md §9): the parallel scheduler survives worker
loss.  A dead worker breaks the whole :class:`ProcessPoolExecutor`, so
the engine tears the pool down, rebuilds it, and resubmits every
in-flight stage — purity makes the retry free of side effects.  A
per-stage timeout watchdog treats a wedged worker the same way.  Both
paths are bounded: a stage retried ``max_stage_attempts`` times without
completing is quarantined and the run fails with a single
:class:`StageFailedError` naming stage and cause; after
``max_pool_breaks`` pool rebuilds the engine stops trusting process
isolation and finishes the remaining stages serially in the parent.
Stage exceptions are deterministic by the purity contract, so they
quarantine immediately rather than burning retries.  All recovery
events flow through :mod:`repro.obs` (``engine_stage_retries``,
``engine_pool_breaks``, ``engine_serial_fallbacks``).

Worker processes get the (large) dataset for free on platforms with
``fork`` — the parent plants the context in a module global before the
pool spawns and children inherit it copy-on-write.  Elsewhere the
dataset is spilled once to a temp dataset directory (per-column
``.npy`` files) that each worker memory-maps in its initializer — the
read-only pages are shared between workers through the OS page cache —
and per-task pickling is limited to the stage function reference, its
parameters, and upstream results.
"""

from __future__ import annotations

import multiprocessing
import pickle
import tempfile
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.engine.cache import StageCache
from repro.engine.faults import inject
from repro.engine.fingerprint import stage_key
from repro.engine.stage import StageContext, StageGraph
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry, Obs, Span, maybe_span
from repro.obs.profiling import profiled_call

__all__ = ["Engine", "EngineRun", "StageFailedError"]

#: Worker-side context; set by fork inheritance or the spawn initializer.
_WORKER_CTX: StageContext | None = None


class StageFailedError(RuntimeError):
    """One or more stages failed for good (no retry can help).

    Carries the full quarantine list as ``failures`` (stage name ->
    causing exception); ``stage`` and ``cause`` expose the first entry
    for the common single-failure case.
    """

    def __init__(self, failures: dict[str, BaseException]) -> None:
        self.failures = dict(failures)
        detail = "; ".join(
            f"{name!r}: {type(exc).__name__}: {exc}"
            for name, exc in self.failures.items()
        )
        noun = "stage" if len(self.failures) == 1 else "stages"
        super().__init__(f"{len(self.failures)} {noun} failed: {detail}")

    @property
    def stage(self) -> str:
        return next(iter(self.failures))

    @property
    def cause(self) -> BaseException:
        return next(iter(self.failures.values()))


def _init_worker_spawn(dataset_path: str, config: dict, aux_blob: bytes):
    global _WORKER_CTX
    from repro.store.io import load_dataset

    # Every spawned worker maps the same spill directory, so the
    # dataset's pages are shared through the OS page cache instead of
    # each worker holding (and parsing) a private copy.  verify=False:
    # the parent wrote this spill moments ago.
    _WORKER_CTX = StageContext(
        dataset=load_dataset(dataset_path, verify=False),
        config=config,
        aux=pickle.loads(aux_blob),
    )


def _run_stage_task(
    fn, params, deps, name="", attempt=0, faults=None,
    span_name="", profile=False,
):
    """Execute one stage in a worker.

    Returns ``(result, seconds, span, metrics, profile_rows)``.  The
    worker records its own :class:`Span` (on its local perf counter —
    the coordinator rebases it onto its clock) and observes the stage
    duration into a private registry whose snapshot the coordinator
    merges, so parallel runs report the same span tree and counters as
    serial ones.  ``profile_rows`` is the cProfile top-N (plain dicts,
    picklable) when ``profile`` is set, else ``None``.
    """
    assert _WORKER_CTX is not None, "worker context missing"
    if faults is not None:
        inject(faults, name, attempt)
    ctx = _WORKER_CTX.with_deps(deps)
    profile_rows = None
    start = time.perf_counter()
    if profile:
        result, profile_rows = profiled_call(fn, ctx, **dict(params))
    else:
        result = fn(ctx, **dict(params))
    seconds = time.perf_counter() - start
    registry = MetricsRegistry()
    registry.histogram(
        "engine_stage_seconds",
        "Wall time per analysis stage",
        labelnames=("stage",),
    ).observe(seconds, stage=name)
    span = Span(name=span_name or name, start=start, end=start + seconds)
    return result, seconds, span, registry.snapshot(), profile_rows


@dataclass
class EngineRun:
    """What one engine invocation did (for tests, CLI, and telemetry)."""

    results: dict[str, Any]
    #: Stages actually computed, in completion order.
    executed: tuple[str, ...]
    #: Stages served from the cache, in completion order.
    cached: tuple[str, ...]
    stage_seconds: dict[str, float]
    jobs: int
    cache_stats: dict[str, int] | None = None
    #: Stage submissions repeated after a worker crash or hang.
    retries: int = 0
    #: Process pools torn down and rebuilt mid-run.
    pool_breaks: int = 0
    #: True when the run finished its tail serially in the parent.
    serial_fallback: bool = False
    #: Per-stage cProfile top-N rows (``Engine.profile`` runs only).
    profiles: dict[str, list] | None = None

    @property
    def n_stages(self) -> int:
        return len(self.results)


@dataclass
class Engine:
    """Runs stage graphs; configure once, run many."""

    jobs: int = 1
    cache: StageCache | None = None
    obs: Obs | None = None
    #: Span/metric prefix for per-stage instrumentation.
    span_prefix: str = "engine:"
    #: Watchdog: a stage in flight longer than this (seconds) is
    #: treated as hung and its pool is rebuilt.  ``None`` disables.
    stage_timeout: float | None = None
    #: Submissions per stage before it is quarantined for good.
    max_stage_attempts: int = 3
    #: Pool rebuilds tolerated before falling back to serial execution.
    max_pool_breaks: int = 2
    #: Seeded chaos plan injected into worker tasks (tests only).
    faults: FaultPlan | None = None
    #: cProfile every stage and collect top-N rows per stage
    #: (``repro analyze --profile``).
    profile: bool = False

    def run(self, graph: StageGraph, ctx: StageContext) -> EngineRun:
        keys = self._stage_keys(graph, ctx)
        if self.jobs <= 1:
            run = self._run_serial(graph, ctx, keys)
        else:
            run = self._run_parallel(graph, ctx, keys)
        if self.obs is not None:
            self.obs.counter(
                "engine_stages_executed", "Stages computed by the engine"
            ).inc(len(run.executed))
            self.obs.counter(
                "engine_stages_cached", "Stages served from the stage cache"
            ).inc(len(run.cached))
        return run

    # -- shared helpers -------------------------------------------------------

    def _stage_keys(
        self, graph: StageGraph, ctx: StageContext
    ) -> dict[str, str | None]:
        """Every stage's cache key, computed once per run in topo order.

        A stage that declares ``columns`` is keyed on just those
        columns' fingerprints — narrower than the whole-dataset
        fingerprint, so unrelated deltas leave it cache-valid — plus
        its deps' keys (computed first; topo order guarantees they
        exist), so an upstream recompute invalidates it transitively.
        Datasets without ``column_fingerprints`` (engine-test doubles)
        fall back to whole-fingerprint keying for every stage.
        """
        if self.cache is None:
            return {name: None for name in graph.topo_order}
        fingerprint = ctx.dataset.fingerprint()
        fps_fn = getattr(ctx.dataset, "column_fingerprints", None)
        keys: dict[str, str | None] = {}
        for name in graph.topo_order:
            stage = graph.by_name[name]
            scoped = stage.columns is not None and fps_fn is not None
            keys[name] = stage_key(
                fingerprint,
                stage,
                ctx.config,
                ctx.aux,
                column_fps=fps_fn() if scoped else None,
                dep_keys=(
                    {d: keys[d] for d in stage.deps}
                    if scoped and stage.deps
                    else None
                ),
            )
        return keys

    def _observe(self, name: str, seconds: float) -> None:
        if self.obs is not None:
            self.obs.histogram(
                "engine_stage_seconds",
                "Wall time per analysis stage",
                labelnames=("stage",),
            ).observe(seconds, stage=name)

    def _count(self, name: str, help_: str, n: int = 1) -> None:
        if self.obs is not None and n:
            self.obs.counter(name, help_).inc(n)

    def _finish(self) -> dict[str, int] | None:
        return self.cache.stats.as_dict() if self.cache is not None else None

    def _compute_serial(
        self,
        graph: StageGraph,
        ctx: StageContext,
        keys: dict[str, str | None],
        results: dict[str, Any],
        executed: list[str],
        cached: list[str],
        timings: dict[str, float],
        span_sink: dict[str, Span] | None = None,
        profiles: dict[str, list] | None = None,
    ) -> None:
        """Compute every stage not yet in ``results``, in topo order.

        Shared by the serial path (empty ``results``) and the parallel
        path's serial fallback (partially-filled ``results``).  Runs in
        the parent, so the fault plan is deliberately not consulted.

        With ``span_sink=None`` stage spans open live on the tracer (the
        plain serial path).  The serial *fallback* passes the parallel
        path's pending-span dict instead: its spans must join the pool
        workers' spans and be attached in one topo-ordered batch, or the
        span ids would depend on when the fallback kicked in.
        """
        for name in graph.topo_order:
            if name in results:
                continue
            stage = graph.by_name[name]
            key = keys[name]
            if key is not None:
                hit, value = self.cache.get(key)
                if hit:
                    results[name] = value
                    cached.append(name)
                    continue
            local = ctx.with_deps({d: results[d] for d in stage.deps})
            span_name = f"{self.span_prefix}{name}"
            sink_start = (
                self.obs.clock()
                if span_sink is not None and self.obs is not None
                else None
            )
            with maybe_span(
                self.obs if span_sink is None else None, span_name
            ):
                start = time.perf_counter()
                try:
                    if self.profile:
                        value, rows = profiled_call(
                            stage.fn, local, **dict(stage.params)
                        )
                        if profiles is not None:
                            profiles[name] = rows
                    else:
                        value = stage.fn(local, **dict(stage.params))
                except Exception as exc:
                    # Purity makes stage exceptions deterministic:
                    # surface one typed error naming stage and cause
                    # instead of a raw traceback.
                    raise StageFailedError({name: exc}) from exc
                timings[name] = time.perf_counter() - start
            if sink_start is not None:
                span_sink[name] = Span(
                    name=span_name, start=sink_start, end=self.obs.clock()
                )
            self._observe(name, timings[name])
            results[name] = value
            executed.append(name)
            if key is not None:
                self.cache.put(key, value)

    # -- serial ---------------------------------------------------------------

    def _run_serial(
        self, graph: StageGraph, ctx: StageContext,
        keys: dict[str, str | None],
    ) -> EngineRun:
        results: dict[str, Any] = {}
        executed: list[str] = []
        cached: list[str] = []
        timings: dict[str, float] = {}
        profiles: dict[str, list] = {}
        self._compute_serial(
            graph, ctx, keys, results, executed, cached, timings,
            profiles=profiles,
        )
        return EngineRun(
            results=results,
            executed=tuple(executed),
            cached=tuple(cached),
            stage_seconds=timings,
            jobs=1,
            cache_stats=self._finish(),
            profiles=profiles if self.profile else None,
        )

    # -- parallel -------------------------------------------------------------

    def _run_parallel(
        self, graph: StageGraph, ctx: StageContext,
        keys: dict[str, str | None],
    ) -> EngineRun:
        global _WORKER_CTX
        results: dict[str, Any] = {}
        executed: list[str] = []
        cached: list[str] = []
        timings: dict[str, float] = {}
        profiles: dict[str, list] = {}
        #: Worker/fallback spans pending attachment; attached to the
        #: tracer in one topo-ordered batch in the ``finally`` below so
        #: span ids never depend on completion order.
        stage_spans: dict[str, Span] = {}

        indegree = {s.name: len(s.deps) for s in graph}
        dependents = graph.dependents()
        position = {name: i for i, name in enumerate(graph.topo_order)}
        ready = [n for n in graph.topo_order if indegree[n] == 0]

        #: Submissions so far, per stage (the worker fault injector and
        #: the quarantine bound both key off this).
        attempts: dict[str, int] = {}
        #: Stages that failed for good, with their causes.
        quarantined: dict[str, BaseException] = {}
        retries = 0
        pool_breaks = 0
        serial_fallback = False

        methods = multiprocessing.get_all_start_methods()
        use_fork = "fork" in methods
        tmpdir: tempfile.TemporaryDirectory | None = None
        if use_fork:
            mp_ctx = multiprocessing.get_context("fork")
            init, initargs = None, ()
            _WORKER_CTX = StageContext(
                dataset=ctx.dataset, config=ctx.config, aux=ctx.aux
            )
        else:
            from repro.store.io import save_dataset

            mp_ctx = multiprocessing.get_context("spawn")
            tmpdir = tempfile.TemporaryDirectory(prefix="repro-engine-")
            # The workers mmap the spilled columns, sharing read-only
            # pages between them.
            path = save_dataset(ctx.dataset, Path(tmpdir.name) / "dataset")
            init = _init_worker_spawn
            initargs = (str(path), ctx.config, pickle.dumps(ctx.aux))

        pool: ProcessPoolExecutor | None = None
        inflight: dict[Future, str] = {}
        #: Watchdog deadlines, parallel to ``inflight``.
        deadlines: dict[Future, float] = {}

        def make_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=mp_ctx,
                initializer=init,
                initargs=initargs,
            )

        def submit(name: str) -> None:
            stage = graph.by_name[name]
            attempt = attempts.get(name, 0)
            attempts[name] = attempt + 1
            future = pool.submit(
                _run_stage_task,
                stage.fn,
                stage.params,
                {d: results[d] for d in stage.deps},
                name,
                attempt,
                self.faults,
                f"{self.span_prefix}{name}",
                self.profile,
            )
            inflight[future] = name
            if self.stage_timeout is not None:
                deadlines[future] = time.monotonic() + self.stage_timeout

        def complete(name: str, value: Any, from_cache: bool) -> None:
            results[name] = value
            (cached if from_cache else executed).append(name)
            for consumer in dependents[name]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
            ready.sort(key=position.__getitem__)

        def abandon_pool() -> list[str]:
            """Tear the pool down without waiting on lost workers.

            Returns the names of the stages that were in flight; their
            futures are cancelled and surviving worker processes
            terminated (a hung worker would otherwise pin the pool's
            management thread until its stage returned).
            """
            nonlocal pool
            lost = list(inflight.values())
            for future in inflight:
                future.cancel()
            procs = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in procs:
                try:
                    proc.terminate()
                except (OSError, AttributeError):
                    pass
            pool = None
            inflight.clear()
            deadlines.clear()
            return lost

        def break_pool(hung: list[str]) -> None:
            """Handle one pool loss: requeue, quarantine, or go serial."""
            nonlocal pool, pool_breaks, retries, serial_fallback
            pool_breaks += 1
            self._count(
                "engine_pool_breaks",
                "Worker pools torn down after a crash or hang",
            )
            lost = abandon_pool()
            for name in hung:
                # A stage that keeps timing out quarantines rather than
                # reaching the serial fallback: the parent has no
                # watchdog, so a genuine hang there would be forever.
                if (
                    attempts[name] >= self.max_stage_attempts
                    or pool_breaks > self.max_pool_breaks
                ):
                    quarantined[name] = TimeoutError(
                        f"stage did not complete within "
                        f"{self.stage_timeout}s in {attempts[name]} attempts"
                    )
            requeue = [n for n in lost if n not in quarantined]
            retries += len(requeue)
            self._count(
                "engine_stage_retries",
                "Stage submissions repeated after worker loss",
                len(requeue),
            )
            if quarantined:
                return
            ready.extend(requeue)
            ready.sort(key=position.__getitem__)
            if pool_breaks > self.max_pool_breaks:
                serial_fallback = True
                self._count(
                    "engine_serial_fallbacks",
                    "Parallel runs that finished serially after "
                    "repeated pool loss",
                )
            else:
                pool = make_pool()

        try:
            pool = make_pool()
            while (ready or inflight) and not quarantined:
                if serial_fallback:
                    break
                while ready:
                    name = ready.pop(0)
                    key = keys[name]
                    if key is not None:
                        hit, value = self.cache.get(key)
                        if hit:
                            complete(name, value, from_cache=True)
                            continue
                    try:
                        submit(name)
                    except BrokenExecutor:
                        # The pool died between batches; the submit
                        # never reached a worker, so it costs no attempt.
                        attempts[name] -= 1
                        ready.insert(0, name)
                        break_pool(hung=[])
                        break
                if serial_fallback or quarantined:
                    continue
                if not inflight:
                    continue
                timeout = None
                if deadlines:
                    timeout = (
                        max(0.0, min(deadlines.values()) - time.monotonic())
                        + 0.02
                    )
                done, _ = wait(
                    inflight, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    now = time.monotonic()
                    hung = [
                        inflight[f]
                        for f, deadline in deadlines.items()
                        if deadline <= now
                    ]
                    if hung:
                        break_pool(hung)
                    continue
                pool_lost = False
                for future in done:
                    name = inflight.pop(future)
                    deadlines.pop(future, None)
                    exc = (
                        future.exception()
                        if not future.cancelled()
                        else None
                    )
                    if future.cancelled() or isinstance(exc, BrokenExecutor):
                        # The pool died under this future; every other
                        # in-flight stage is lost with it.
                        pool_lost = True
                        inflight[future] = name  # counted by abandon_pool
                        continue
                    if exc is not None:
                        # A stage function raised: deterministic by the
                        # purity contract — quarantine, don't retry.
                        quarantined[name] = exc
                        continue
                    value, seconds, span, metrics, prof = future.result()
                    timings[name] = seconds
                    if prof is not None:
                        profiles[name] = prof
                    if self.obs is not None:
                        # Rebase the worker's span (its own perf counter)
                        # so it *ends* now on our clock, then park it for
                        # the topo-ordered attach; merging the worker's
                        # registry replaces the coordinator-side observe.
                        span.shift(self.obs.clock() - (span.end or span.start))
                        stage_spans[name] = span
                        self.obs.registry.merge(metrics)
                    complete(name, value, from_cache=False)
                    key = keys[name]
                    if key is not None:
                        self.cache.put(key, value)
                if quarantined:
                    break
                if pool_lost:
                    break_pool(hung=[])
            if quarantined:
                raise StageFailedError(quarantined)
            if serial_fallback:
                self._compute_serial(
                    graph, ctx, keys,
                    results, executed, cached, timings,
                    span_sink=stage_spans,
                    profiles=profiles,
                )
        finally:
            _WORKER_CTX = None
            if tmpdir is not None:
                tmpdir.cleanup()
            if pool is not None:
                if inflight:
                    # Failure path with work still in flight: cancel it
                    # and reap workers instead of waiting (a stuck or
                    # long-running stage must not hang the caller).
                    abandon_pool()
                else:
                    pool.shutdown(wait=True, cancel_futures=True)
            if self.obs is not None and stage_spans:
                # Attach in topo order — the order the serial path opens
                # spans in — so serial, parallel, and fault-recovery
                # runs yield identical span trees and span ids.
                for name in graph.topo_order:
                    span = stage_spans.get(name)
                    if span is not None:
                        self.obs.tracer.attach(span)
        return EngineRun(
            results=results,
            executed=tuple(executed),
            cached=tuple(cached),
            stage_seconds=timings,
            jobs=self.jobs,
            cache_stats=self._finish(),
            retries=retries,
            pool_breaks=pool_breaks,
            serial_fallback=serial_fallback,
            profiles=profiles if self.profile else None,
        )
