"""Process-parallel execution: determinism and scheduling.

The determinism contract (DESIGN.md §8): the jobs count is a pure
acceleration knob — same seed, any jobs, byte-identical report.
"""

import pytest

from repro import SteamStudy
from repro.engine import Engine, Stage, StageContext, StageGraph
from repro.obs import Obs


def _double(ctx, value):
    return value * 2


def _add_deps(ctx):
    return ctx.dep("left") + ctx.dep("right")


def _use_config(ctx):
    return ctx.config["base"] + 1


def _use_aux(ctx):
    return ctx.aux["extra"]


def _diamond_graph():
    return StageGraph(
        [
            Stage(name="left", fn=_double, params=(("value", 3),)),
            Stage(name="right", fn=_use_config, config_keys=("base",)),
            Stage(name="merge", fn=_add_deps, deps=("left", "right")),
            Stage(name="aux", fn=_use_aux, aux_keys=("extra",)),
        ]
    )


class TestEngineGraphExecution:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_diamond_dependencies_resolve(self, small_dataset, jobs):
        ctx = StageContext(
            dataset=small_dataset,
            config={"base": 10},
            aux={"extra": "panel"},
        )
        run = Engine(jobs=jobs).run(_diamond_graph(), ctx)
        assert run.results == {
            "left": 6,
            "right": 11,
            "merge": 17,
            "aux": "panel",
        }
        assert set(run.executed) == {"left", "right", "merge", "aux"}
        assert run.cached == ()

    def test_stage_exception_propagates(self, small_dataset):
        def boom(ctx):
            raise RuntimeError("stage failed")

        # Serial path: the exception must surface, not be swallowed.
        graph = StageGraph([Stage(name="bad", fn=boom)])
        ctx = StageContext(dataset=small_dataset)
        with pytest.raises(RuntimeError, match="stage failed"):
            Engine(jobs=1).run(graph, ctx)


class TestParallelByteIdentity:
    @pytest.fixture(scope="class")
    def reports(self, small_world):
        study = SteamStudy(
            world=small_world, _dataset=small_world.dataset
        )
        return {
            jobs: study.run(table4_max_tail=4_000, jobs=jobs)
            for jobs in (1, 2, 4)
        }

    def test_same_seed_reports_byte_identical(self, reports):
        serial = reports[1].render()
        assert reports[2].render() == serial
        assert reports[4].render() == serial

    def test_figures_byte_identical(self, reports):
        serial = reports[1].render_figures()
        assert reports[2].render_figures() == serial
        assert reports[4].render_figures() == serial

    def test_table4_rows_ordered_identically(self, reports):
        orders = {
            jobs: tuple(report.table4.rows)
            for jobs, report in reports.items()
        }
        assert orders[2] == orders[1]
        assert orders[4] == orders[1]


class TestObservability:
    def test_engine_counters_and_stage_histogram(self, small_world):
        obs = Obs()
        study = SteamStudy(
            world=small_world, _dataset=small_world.dataset
        )
        study.run(include_table4=False, obs=obs, jobs=2)
        run = study.last_engine_run
        executed = obs.registry.get("engine_stages_executed")
        assert executed.value() == len(run.executed)
        histogram = obs.registry.get("engine_stage_seconds")
        total_observed = sum(
            series["count"] for series in histogram.snapshot()["series"]
        )
        assert total_observed == len(run.executed)

    def test_cache_counters_reach_obs(self, small_world, tmp_path):
        from repro.engine import StageCache

        obs = Obs()
        study = SteamStudy(
            world=small_world, _dataset=small_world.dataset
        )
        cache = StageCache(tmp_path / "cache", obs=obs)
        study.run(include_table4=False, obs=obs, cache=cache)
        study.run(include_table4=False, obs=obs, cache=cache)
        n = study.last_engine_run.n_stages
        assert obs.registry.get("engine_cache_misses").value() == n
        assert obs.registry.get("engine_cache_hits").value() == n
        assert obs.registry.get("engine_stages_cached").value() == n

    def test_serial_spans_preserved_per_stage(self, small_world):
        # The legacy contract: one analyze:<stage> span per stage.
        obs = Obs()
        study = SteamStudy(
            world=small_world, _dataset=small_world.dataset
        )
        study.run(include_table4=False, obs=obs)
        totals = obs.tracer.aggregate()
        assert totals["analyze"]["count"] == 1
        assert totals["analyze:summary"]["count"] == 1
        assert totals["analyze:fig12_week_panel"]["count"] == 1


def _shape(snap: dict) -> tuple:
    """A span subtree as (name, span_id, parent_span_id, children)."""
    return (
        snap["name"],
        snap.get("span_id"),
        snap.get("parent_span_id"),
        tuple(_shape(c) for c in snap["children"]),
    )


def _forest(obs: Obs) -> tuple:
    return tuple(_shape(s) for s in obs.tracer.snapshot())


class TestSpanTreeParity:
    """Serial, parallel, and fault-recovery runs must produce the same
    span tree — same names, same nesting, same deterministic span ids
    (DESIGN.md §10).  Execution strategy is an implementation detail;
    the trace is part of the deterministic output."""

    def _traced_obs(self):
        from repro.obs import TraceContext

        return Obs(trace=TraceContext.new(seed=1603))

    def test_study_serial_and_parallel_span_trees_identical(
        self, small_world
    ):
        forests = {}
        for jobs in (1, 2):
            obs = self._traced_obs()
            study = SteamStudy(
                world=small_world, _dataset=small_world.dataset
            )
            study.run(include_table4=False, obs=obs, jobs=jobs)
            forests[jobs] = _forest(obs)
        assert forests[2] == forests[1]
        names = [root[0] for root in forests[1]]
        assert "analyze" in names

    def test_parallel_worker_spans_have_ids(self, small_world):
        obs = self._traced_obs()
        study = SteamStudy(
            world=small_world, _dataset=small_world.dataset
        )
        study.run(include_table4=False, obs=obs, jobs=2)
        totals = obs.tracer.aggregate()
        assert totals["analyze:summary"]["count"] == 1
        analyze = [
            s for s in obs.tracer.snapshot() if s["name"] == "analyze"
        ][0]
        stage_spans = analyze["children"]
        assert stage_spans, "worker spans were not attached"
        ids = [s["span_id"] for s in stage_spans]
        assert all(isinstance(i, int) for i in ids)
        assert len(set(ids)) == len(ids)
        assert all(
            s["parent_span_id"] == analyze["span_id"] for s in stage_spans
        )

    def test_fault_fallback_span_tree_matches_clean_run(
        self, small_dataset
    ):
        from repro.engine import EngineFaultSpec
        from repro.faults import FaultPlan

        ctx = StageContext(
            dataset=small_dataset,
            config={"base": 10},
            aux={"extra": "panel"},
        )
        # An enclosing span pins the stage spans into one tree whose
        # child order is attach order (= topo order), independent of
        # wall-clock start times.
        clean_obs = self._traced_obs()
        with clean_obs.span("run"):
            Engine(jobs=2, obs=clean_obs).run(_diamond_graph(), ctx)

        plan = FaultPlan(
            overrides={
                "left": EngineFaultSpec(crash=1.0, max_faulted_attempts=99)
            }
        )
        faulted_obs = self._traced_obs()
        with faulted_obs.span("run"):
            run = Engine(jobs=2, faults=plan, obs=faulted_obs).run(
                _diamond_graph(), ctx
            )
        assert run.serial_fallback

        serial_obs = self._traced_obs()
        with serial_obs.span("run"):
            Engine(jobs=1, obs=serial_obs).run(_diamond_graph(), ctx)

        assert _forest(faulted_obs) == _forest(clean_obs)
        assert _forest(serial_obs) == _forest(clean_obs)
