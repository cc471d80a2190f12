"""Crawler resilience benchmark: throughput degradation vs. fault rate.

Runs the same full crawl through a :class:`FaultInjectingTransport` at
increasing fault rates and measures the cost of surviving them: extra
API requests (every retry is a repeat call), wall-clock slowdown, and
the injected-fault / retry counters.  The harvest must stay
byte-identical to the clean crawl at every rate — resilience that
corrupts data is worse than none.
"""

import time

import pytest

from repro import SteamWorld, WorldConfig
from repro.crawler.retry import RetryPolicy
from repro.obs import bench_metric
from repro.crawler.runner import run_full_crawl
from repro.faults import FaultPlan
from repro.pipeline.manifest import file_checksum
from repro.steamapi.faults import FaultInjectingTransport, FaultSpec
from repro.steamapi.service import SteamApiService
from repro.steamapi.transport import InProcessTransport
from repro.store.io import save_dataset

FAULT_RATES = (0.0, 0.05, 0.15, 0.30)


@pytest.fixture(scope="module")
def fault_world():
    return SteamWorld.generate(WorldConfig(n_users=8_000, seed=31))


def test_throughput_vs_fault_rate(
    benchmark, fault_world, record, record_json, tmp_path
):
    service = SteamApiService.from_world(fault_world)

    def crawl(rate: float):
        transport = InProcessTransport(service)
        if rate > 0:
            transport = FaultInjectingTransport(
                transport,
                FaultPlan(seed=97, default=FaultSpec.uniform(rate, burst=2)),
            )
        start = time.perf_counter()
        result = run_full_crawl(
            transport,
            # At 30% with 2-bursts nearly half of all attempts fail, so
            # streaks run long; the budget must outlast the worst one.
            retry=RetryPolicy(
                sleeper=lambda s: None, max_attempts=30, jitter=True
            ),
        )
        elapsed = time.perf_counter() - start
        return result, elapsed

    runs = {}
    for rate in FAULT_RATES:
        if rate == FAULT_RATES[-1]:
            # Time the heaviest configuration under pytest-benchmark.
            runs[rate] = benchmark.pedantic(
                crawl, args=(rate,), rounds=1, iterations=1
            )
        else:
            runs[rate] = crawl(rate)

    def digest(result):
        path = save_dataset(result.dataset, tmp_path / "bench")
        return file_checksum(path)

    clean_result, clean_elapsed = runs[0.0]
    clean_sha = digest(clean_result)

    lines = [
        "Crawler throughput degradation vs. injected fault rate",
        f"accounts: {fault_world.config.n_users:,}",
        f"{'rate':>6} {'attempts':>10} {'faults':>8} {'retries':>8} "
        f"{'seconds':>8} {'slowdown':>9}",
    ]
    for rate in FAULT_RATES:
        result, elapsed = runs[rate]
        lines.append(
            f"{rate:>6.0%} {result.attempts:>10,} "
            f"{result.n_injected_faults:>8,} {result.retries:>8,} "
            f"{elapsed:>8.2f} {elapsed / clean_elapsed:>8.1f}x"
        )
        # Resilience must never cost correctness.
        assert digest(result) == clean_sha, f"corrupt harvest at {rate:.0%}"
        if rate > 0:
            assert result.n_injected_faults > 0
            assert result.retries >= result.n_injected_faults
    record("crawler_fault_throughput", lines)
    json_metrics = []
    for rate in FAULT_RATES:
        result, elapsed = runs[rate]
        tag = f"rate_{int(rate * 100):02d}"
        json_metrics.extend(
            [
                bench_metric(f"{tag}_attempts", result.attempts, "requests"),
                bench_metric(
                    f"{tag}_injected_faults",
                    result.n_injected_faults,
                    "faults",
                ),
                bench_metric(f"{tag}_retries", result.retries, "retries"),
                bench_metric(f"{tag}_seconds", round(elapsed, 4), "s"),
                bench_metric(
                    f"{tag}_slowdown",
                    round(elapsed / clean_elapsed, 2),
                    "x",
                ),
            ]
        )
    record_json(
        "crawler_faults",
        json_metrics,
        seed=31,
        n_users=fault_world.config.n_users,
    )

    # Attempt inflation grows with the fault rate (every retry repeats
    # the transport request), and stays within sanity bounds.
    attempts = [runs[rate][0].attempts for rate in FAULT_RATES]
    assert attempts[0] < attempts[1] < attempts[-1]
    assert attempts[-1] < attempts[0] * 4
