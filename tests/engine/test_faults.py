"""Engine fault injection and crash recovery.

The determinism contract (DESIGN.md §8) extends to failure: a run that
loses workers, trips the watchdog, or falls back to serial execution
must produce byte-identical results to a clean run.  These tests drive
every recovery path with the seeded injector from
:mod:`repro.engine.faults`.
"""

import multiprocessing
import time

import pytest

from repro import SteamStudy
from repro.engine import (
    Engine,
    EngineFaultSpec,
    InjectedFaultError,
    Stage,
    StageContext,
    StageFailedError,
    StageGraph,
)
from repro.engine.faults import decide, inject
from repro.faults import FaultPlan
from repro.obs import Obs


def _double(ctx, value):
    return value * 2


def _add_deps(ctx):
    return ctx.dep("left") + ctx.dep("right")


def _const_seven(ctx):
    return 7


def _slowish(ctx):
    time.sleep(0.2)
    return "slow-done"


def _small_graph():
    return StageGraph(
        [
            Stage(name="left", fn=_double, params=(("value", 3),)),
            Stage(name="right", fn=_const_seven),
            Stage(name="merge", fn=_add_deps, deps=("left", "right")),
        ]
    )


def _wait_for_no_children(timeout: float = 10.0) -> list:
    """Poll until no worker processes remain (they exit asynchronously)."""
    deadline = time.monotonic() + timeout
    children = multiprocessing.active_children()
    while children and time.monotonic() < deadline:
        time.sleep(0.05)
        children = multiprocessing.active_children()
    return children


def _uniform(rate, seed):
    return FaultPlan(seed=seed, default=EngineFaultSpec.uniform(rate))


class TestFaultPlan:
    def test_decide_is_deterministic_across_instances(self):
        a = _uniform(0.5, seed=42)
        b = _uniform(0.5, seed=42)
        draws = [
            (stage, attempt)
            for stage in ("fig4", "table2", "table4:0", "summary")
            for attempt in range(4)
        ]
        assert [decide(a, s, n) for s, n in draws] == [
            decide(b, s, n) for s, n in draws
        ]

    def test_different_seeds_differ(self):
        stages = [f"stage{i}" for i in range(64)]
        a = [decide(_uniform(0.5, seed=1), s, 0) for s in stages]
        b = [decide(_uniform(0.5, seed=2), s, 0) for s in stages]
        assert a != b

    def test_longest_prefix_wins(self):
        plan = FaultPlan(
            overrides={
                "table4": EngineFaultSpec(crash=1.0),
                "table4:9": EngineFaultSpec(error=1.0),
            }
        )
        assert plan.spec_for("table4:3").crash == 1.0
        assert plan.spec_for("table4:9").error == 1.0
        # No matching prefix and no default: never faulted.
        assert plan.spec_for("fig2") is None
        assert decide(plan, "fig2", 0) is None

    def test_attempt_cap_bounds_faults(self):
        plan = FaultPlan(
            overrides={"x": EngineFaultSpec(crash=1.0, max_faulted_attempts=2)}
        )
        assert decide(plan, "x", 0) == "crash"
        assert decide(plan, "x", 1) == "crash"
        assert decide(plan, "x", 2) is None

    def test_probabilities_validated(self):
        with pytest.raises(ValueError, match="sum to within"):
            EngineFaultSpec(crash=0.8, error=0.5)

    def test_error_fault_raises_in_process(self):
        plan = FaultPlan(overrides={"x": EngineFaultSpec(error=1.0)})
        with pytest.raises(InjectedFaultError, match="stage 'x'"):
            inject(plan, "x", 0)
        inject(plan, "x", 1)  # past the attempt cap: no fault


class TestCrashRecovery:
    def test_worker_crash_is_retried_to_the_same_answer(self, small_dataset):
        plan = FaultPlan(
            overrides={"left": EngineFaultSpec(crash=1.0)}
        )
        obs = Obs()
        ctx = StageContext(dataset=small_dataset)
        run = Engine(jobs=2, faults=plan, obs=obs).run(_small_graph(), ctx)
        clean = Engine(jobs=1).run(_small_graph(), ctx)
        assert run.results == clean.results
        assert run.retries >= 1
        assert run.pool_breaks >= 1
        assert not run.serial_fallback
        assert obs.registry.get("engine_stage_retries").value() >= 1
        assert obs.registry.get("engine_pool_breaks").value() >= 1

    def test_persistent_crasher_falls_back_to_serial(self, small_dataset):
        # Every attempt crashes: pool rebuilds are pointless, so after
        # max_pool_breaks the engine must finish the graph serially
        # (where the injector is never consulted) rather than loop.
        plan = FaultPlan(
            overrides={
                "left": EngineFaultSpec(crash=1.0, max_faulted_attempts=99)
            }
        )
        obs = Obs()
        ctx = StageContext(dataset=small_dataset)
        run = Engine(jobs=2, faults=plan, obs=obs).run(_small_graph(), ctx)
        clean = Engine(jobs=1).run(_small_graph(), ctx)
        assert run.results == clean.results
        assert run.serial_fallback
        assert run.pool_breaks > Engine.max_pool_breaks
        assert obs.registry.get("engine_serial_fallbacks").value() == 1

    def test_no_worker_processes_leak_after_recovery(self, small_dataset):
        plan = FaultPlan(overrides={"left": EngineFaultSpec(crash=1.0)})
        ctx = StageContext(dataset=small_dataset)
        Engine(jobs=2, faults=plan).run(_small_graph(), ctx)
        assert _wait_for_no_children() == []


class TestHangWatchdog:
    def test_hung_stage_is_killed_and_retried(self, small_dataset):
        plan = FaultPlan(
            overrides={"left": EngineFaultSpec(hang=1.0, hang_seconds=30.0)}
        )
        ctx = StageContext(dataset=small_dataset)
        start = time.monotonic()
        run = Engine(jobs=2, faults=plan, stage_timeout=0.5).run(
            _small_graph(), ctx
        )
        elapsed = time.monotonic() - start
        clean = Engine(jobs=1).run(_small_graph(), ctx)
        assert run.results == clean.results
        assert run.retries >= 1
        # Recovery must come from the watchdog, not the 30s sleep.
        assert elapsed < 15.0

    def test_persistent_hang_is_quarantined_not_infinite(self, small_dataset):
        plan = FaultPlan(
            overrides={
                "left": EngineFaultSpec(
                    hang=1.0, hang_seconds=30.0, max_faulted_attempts=99
                )
            }
        )
        ctx = StageContext(dataset=small_dataset)
        start = time.monotonic()
        with pytest.raises(StageFailedError) as excinfo:
            Engine(jobs=2, faults=plan, stage_timeout=0.3).run(
                _small_graph(), ctx
            )
        assert excinfo.value.stage == "left"
        assert time.monotonic() - start < 20.0


class TestDeterministicFailures:
    def test_error_fault_quarantines_with_stage_name(self, small_dataset):
        plan = FaultPlan(overrides={"left": EngineFaultSpec(error=1.0)})
        ctx = StageContext(dataset=small_dataset)
        with pytest.raises(StageFailedError) as excinfo:
            Engine(jobs=2, faults=plan).run(_small_graph(), ctx)
        assert excinfo.value.stage == "left"
        assert isinstance(excinfo.value.cause, InjectedFaultError)
        assert "left" in str(excinfo.value)

    def test_failing_stage_does_not_hang_run_with_work_in_flight(
        self, small_dataset
    ):
        # Regression: a stage exception used to leave in-flight futures
        # and pool workers behind, wedging interpreter shutdown.  The
        # run must raise promptly and leave no children.
        graph = StageGraph(
            [
                Stage(name="bad", fn=_double, params=(("value", 1),)),
                Stage(name="slow", fn=_slowish),
            ]
        )
        plan = FaultPlan(overrides={"bad": EngineFaultSpec(error=1.0)})
        ctx = StageContext(dataset=small_dataset)
        start = time.monotonic()
        with pytest.raises(StageFailedError, match="bad"):
            Engine(jobs=2, faults=plan).run(graph, ctx)
        assert time.monotonic() - start < 15.0
        assert _wait_for_no_children() == []


class TestStudyByteIdentityUnderFaults:
    def test_crashy_parallel_analyze_matches_clean_serial(self, small_world):
        # The acceptance path: a seeded worker-crash plan during a
        # jobs=4 analyze must still produce a byte-identical report,
        # with the recovery visible in the metrics.
        study = SteamStudy(world=small_world, _dataset=small_world.dataset)
        clean = study.run(include_table4=False).render()
        obs = Obs()
        plan = FaultPlan(
            seed=7,
            overrides={
                "fig4": EngineFaultSpec(crash=1.0),
                "table2": EngineFaultSpec(crash=1.0),
            },
        )
        faulted = study.run(
            include_table4=False, jobs=4, engine_faults=plan, obs=obs
        ).render()
        assert faulted == clean
        assert study.last_engine_run.retries > 0
        assert obs.registry.get("engine_stage_retries").value() > 0
