"""Engine recovery overhead and crash-path cost (DESIGN.md §9).

Three measurements over one synthetic world:

1. clean parallel analysis with recovery machinery idle — the baseline,
2. clean parallel analysis with the watchdog armed (a generous
   ``stage_timeout``) — the overhead of deadline tracking on the happy
   path, which must stay under ``OVERHEAD_CEILING`` on hardware quiet
   enough to measure it,
3. the same analysis under a seeded worker-crash plan — the honest
   price of losing a worker mid-run (pool rebuild + stage retries),
   with byte-identity against the clean report asserted.

Set ``REPRO_BENCH_USERS`` to scale the world (default 20,000 — the
crashy mode reruns stages, so this benchmark stays smaller than the
throughput ones).

The overhead assertion is gated on world scale: below
``MIN_USERS_FOR_OVERHEAD`` the per-stage work is microseconds and the
ratio is scheduler noise, so only the determinism contract is enforced
there.  The JSON telemetry always records the honest measurements.
"""

import os
import time

import pytest

from repro import SteamStudy, SteamWorld, WorldConfig
from repro.engine import EngineFaultSpec
from repro.faults import FaultPlan
from repro.obs import Obs, bench_metric

RECOVERY_USERS = int(os.environ.get("REPRO_BENCH_USERS", "20000"))
RECOVERY_SEED = 811
JOBS = 2

#: Acceptance: the armed-but-idle recovery machinery may cost at most
#: this fraction over the plain parallel run.
OVERHEAD_CEILING = 0.05
#: ... asked only when stages are big enough to out-shout the noise
#: (at the CI default of 20k users a full clean run is ~0.1s, where a
#: 5% ratio is scheduler jitter, not signal).
MIN_USERS_FOR_OVERHEAD = 50_000


@pytest.fixture(scope="module")
def recovery_world():
    return SteamWorld.generate(
        WorldConfig(n_users=RECOVERY_USERS, seed=RECOVERY_SEED)
    )


def _timed_run(world, obs=None, **kwargs):
    study = SteamStudy(world=world, _dataset=world.dataset)
    start = time.perf_counter()
    report = study.run(include_table4=False, obs=obs, **kwargs)
    return report, time.perf_counter() - start, study.last_engine_run


def _best_of(n, fn):
    # Min-of-n: scheduler noise only adds time (as in timeit).
    best = None
    keep = None
    for _ in range(n):
        result = fn()
        if best is None or result[1] < best:
            best = result[1]
            keep = result
    return keep


def test_engine_recovery(benchmark, recovery_world, record, record_json):
    report_clean, _, _ = benchmark.pedantic(
        _timed_run, args=(recovery_world,), kwargs={"jobs": JOBS},
        rounds=1, iterations=1,
    )
    _, clean, _ = _best_of(3, lambda: _timed_run(recovery_world, jobs=JOBS))

    _, armed, _ = _best_of(
        3,
        lambda: _timed_run(
            recovery_world, jobs=JOBS, stage_timeout=300.0
        ),
    )
    overhead = armed / clean - 1.0

    crash_plan = FaultPlan(
        seed=7,
        overrides={
            "fig4": EngineFaultSpec(crash=1.0),
            "table2": EngineFaultSpec(crash=1.0),
        },
    )
    obs = Obs()
    report_crashy, crashy, run_crashy = _timed_run(
        recovery_world, jobs=JOBS, engine_faults=crash_plan, obs=obs
    )
    crash_cost = crashy / clean - 1.0

    cores = os.cpu_count() or 1
    lines = [
        "Engine recovery overhead (watchdog + crash retry)",
        f"users: {recovery_world.config.n_users:,}",
        f"cpu cores: {cores}",
        f"clean parallel seconds (jobs={JOBS}):  {clean:.3f}",
        f"watchdog-armed seconds:              {armed:.3f}  "
        f"({overhead * 100:+.1f}%)",
        f"seeded worker-crash seconds:         {crashy:.3f}  "
        f"({crash_cost * 100:+.1f}%, {run_crashy.retries} retries, "
        f"{run_crashy.pool_breaks} pool rebuilds)",
        f"byte-identical after recovery: "
        f"{report_crashy.render() == report_clean.render()}",
    ]
    record("engine_recovery", lines)
    record_json(
        "engine_recovery",
        [
            bench_metric("cpu_count", cores, "cores"),
            bench_metric("jobs", JOBS, "workers"),
            bench_metric("clean_seconds", round(clean, 4), "s"),
            bench_metric("armed_seconds", round(armed, 4), "s"),
            bench_metric(
                "watchdog_overhead", round(overhead, 4), "ratio"
            ),
            bench_metric("crashy_seconds", round(crashy, 4), "s"),
            bench_metric(
                "crash_recovery_cost", round(crash_cost, 4), "ratio"
            ),
            bench_metric(
                "stage_retries", run_crashy.retries, "retries"
            ),
            bench_metric(
                "pool_breaks", run_crashy.pool_breaks, "rebuilds"
            ),
        ],
        seed=RECOVERY_SEED,
        n_users=recovery_world.config.n_users,
    )

    # Determinism contract: recovery is invisible in the output.
    assert report_crashy.render() == report_clean.render()
    assert run_crashy.retries > 0
    assert run_crashy.pool_breaks > 0
    assert obs.registry.get("engine_stage_retries").value() > 0
    if recovery_world.config.n_users >= MIN_USERS_FOR_OVERHEAD:
        assert overhead <= OVERHEAD_CEILING, (
            f"armed watchdog cost {overhead * 100:.1f}% over clean "
            f"(ceiling {OVERHEAD_CEILING * 100:.0f}%)"
        )
