"""The determinism contract: same seed + fake clock → identical bytes.

Acceptance criteria from DESIGN.md §7: two crawls of the same world
with the same fault plan and a :class:`FakeClock` must serialize to
byte-identical JSON snapshots, and a chaos crawl's snapshot must agree
with the :class:`CrawlResult` fault counters.
"""

import pytest

from repro.crawler.retry import RetryPolicy
from repro.crawler.runner import run_full_crawl
from repro.faults import FaultPlan
from repro.obs import FakeClock, Obs
from repro.steamapi.faults import FaultInjectingTransport, FaultSpec
from repro.steamapi.service import SteamApiService
from repro.steamapi.transport import InProcessTransport

CHAOS_PLAN = FaultPlan(
    seed=1337,
    default=FaultSpec(
        rate_limit=0.02,
        server_error=0.02,
        timeout=0.01,
        malformed=0.01,
        retry_after=(0.001, 0.01),
        burst=2,
    ),
)


def _chaos_crawl(world):
    obs = Obs(clock=FakeClock(tick=0.001))
    transport = FaultInjectingTransport(
        InProcessTransport(SteamApiService.from_world(world)),
        CHAOS_PLAN,
        obs=obs,
    )
    result = run_full_crawl(
        transport,
        retry=RetryPolicy(
            sleeper=lambda s: None, max_attempts=30, jitter=True
        ),
        obs=obs,
    )
    return result, obs


class TestSnapshotDeterminism:
    def test_two_chaos_crawls_byte_identical(self, small_world):
        _, obs_a = _chaos_crawl(small_world)
        _, obs_b = _chaos_crawl(small_world)
        assert obs_a.to_json() == obs_b.to_json()
        assert obs_a.to_prometheus() == obs_b.to_prometheus()

    def test_snapshot_matches_result_fault_counts(self, small_world):
        result, obs = _chaos_crawl(small_world)
        assert result.n_injected_faults > 0
        counter = obs.registry.get("steamapi_injected_faults")
        for kind, count in result.injected_faults.items():
            assert counter.value(kind=kind) == count, kind
        # ... and nothing beyond what the result reports.
        snapped = {
            series["labels"][0]: series["value"]
            for series in counter.snapshot()["series"]
        }
        assert snapped == {
            k: v for k, v in result.injected_faults.items() if v
        }

    def test_request_counters_match_session_totals(self, small_world):
        result, obs = _chaos_crawl(small_world)
        requests = obs.registry.get("steamapi_requests")
        total = sum(
            series["value"]
            for series in requests.snapshot()["series"]
        )
        assert total == result.requests_made
        attempts = obs.registry.get("steamapi_attempts")
        assert attempts.value() == result.attempts
        latency = obs.registry.get("steamapi_request_seconds")
        total_observed = sum(
            series["count"]
            for series in latency.snapshot()["series"]
        )
        assert total_observed == result.requests_made

    def test_span_tree_covers_all_phases(self, small_world):
        _, obs = _chaos_crawl(small_world)
        totals = obs.tracer.aggregate()
        for name in (
            "crawl",
            "phase:profiles",
            "phase:storefront",
            "phase:details",
            "phase:groups",
            "phase:achievements",
            "assemble:dataset",
        ):
            assert totals[name]["count"] == 1, name

    def test_retry_counters_consistent(self, small_world):
        result, obs = _chaos_crawl(small_world)
        retried = obs.registry.get("crawler_retries")
        total_retries = sum(
            series["value"] for series in retried.snapshot()["series"]
        )
        assert total_retries == result.retries
        assert result.retries >= result.n_injected_faults


class TestGenerationSpans:
    def test_generate_stage_spans(self, small_world):
        from repro import SteamWorld, WorldConfig

        obs = Obs(clock=FakeClock(tick=0.001))
        SteamWorld.generate(
            WorldConfig(n_users=1_000, seed=5), obs=obs
        )
        totals = obs.tracer.aggregate()
        for name in (
            "generate",
            "generate:geography",
            "generate:friends",
            "generate:assemble",
        ):
            assert totals[name]["count"] == 1, name

    def test_analysis_stage_spans(self, small_world):
        from repro import SteamStudy

        obs = Obs(clock=FakeClock(tick=0.001))
        study = SteamStudy(
            world=small_world, _dataset=small_world.dataset
        )
        study.run(include_table4=False, obs=obs)
        totals = obs.tracer.aggregate()
        assert totals["analyze"]["count"] == 1
        assert totals["analyze:table3_percentiles"]["count"] == 1
        assert totals["analyze:fig11_homophily"]["count"] == 1


class TestCheckpointMetrics:
    def test_save_and_load_timed(self, tmp_path):
        from repro.crawler.checkpoint import CrawlCheckpoint

        obs = Obs(clock=FakeClock(tick=0.001))
        path = tmp_path / "ckpt.json"
        ckpt = CrawlCheckpoint(path=path, obs=obs)
        ckpt.save()
        CrawlCheckpoint.load(path, obs=obs)
        assert obs.registry.get("crawler_checkpoint_saves").value() == 1
        assert (
            obs.registry.get("crawler_checkpoint_save_seconds").count()
            == 1
        )
        assert (
            obs.registry.get("crawler_checkpoint_load_seconds").count()
            == 1
        )


class TestTracedCrawlDeterminism:
    """End-to-end trace determinism: the same seeded chaos crawl under a
    FakeClock and a seeded TraceContext writes byte-identical Chrome
    traces — span names, ids, timings, and retry spans included."""

    def _traced_chaos_crawl(self, world):
        from repro.obs import TraceContext

        obs = Obs(
            clock=FakeClock(tick=0.001),
            trace=TraceContext.new(seed=1337),
        )
        transport = FaultInjectingTransport(
            InProcessTransport(SteamApiService.from_world(world)),
            CHAOS_PLAN,
            obs=obs,
        )
        result = run_full_crawl(
            transport,
            retry=RetryPolicy(
                sleeper=lambda s: None, max_attempts=30, jitter=True
            ),
            obs=obs,
        )
        return result, obs

    def test_chrome_trace_bytes_identical_across_runs(
        self, small_world, tmp_path
    ):
        _, obs_a = self._traced_chaos_crawl(small_world)
        _, obs_b = self._traced_chaos_crawl(small_world)
        a = obs_a.write_trace(tmp_path / "a.trace.json")
        b = obs_b.write_trace(tmp_path / "b.trace.json")
        assert a.read_bytes() == b.read_bytes()

    def test_trace_covers_phases_and_retries(self, small_world):
        import json

        from repro.obs import to_chrome_trace

        result, obs = self._traced_chaos_crawl(small_world)
        assert result.retries > 0  # the chaos plan actually bit
        doc = to_chrome_trace(obs.snapshot())
        names = {
            e["name"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert "crawl" in names
        assert "phase:profiles" in names
        assert any(n.startswith("retry:") for n in names)
        # Every event carries an id from the single seeded trace.
        ids = [
            e["args"]["span_id"]
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        ]
        assert len(set(ids)) == len(ids)
        json.dumps(doc)  # remains serializable end to end
