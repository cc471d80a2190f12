"""Overload-protection benchmark for the serving tier (DESIGN.md §14).

Puts a chaos-stalled analytics server behind a deliberately small
admission budget, then storms it at ~4x capacity with seeded keep-alive
clients and measures the *degradation contract*:

- zero resource-exhaustion 5xx — every request is either served (200)
  or shed fast with a retryable 429 + ``Retry-After``,
- accepted-request latency quantiles (the p99 is the CI gate: overload
  must not make the *admitted* requests slow),
- shed rate and shed-response latency (rejection must be cheap),
- byte-identity: every accepted body must equal the unloaded
  reference run's body for that path, asserted outright and recorded
  as a ratio for the gate,
- request-record fidelity (DESIGN.md §15): every storm request leaves
  exactly one canonical record whose status matches the wire, the
  storm's JSONL and an exemplar-bearing metrics snapshot land under
  ``benchmarks/results/`` for CI artifact upload, and the SLO error
  budget burned plus burn-alert fire counts are recorded for the gate
  (a storm past capacity *must* page).

Scales via ``REPRO_BENCH_USERS`` (world size, default 60,000) and
``REPRO_BENCH_STORM_CLIENTS`` (storm width, default 16, served through
an admission budget a quarter that size).
"""

from __future__ import annotations

import http.client
import os
import pathlib
import time

import numpy as np
import pytest

from repro import SteamWorld, WorldConfig
from repro.faults import FaultPlan
from repro.obs import Obs, RequestLog, SLOTracker, bench_metric
from repro.obs.slo import SLOSpec
from repro.serving import (
    AdmissionConfig,
    AnalyticsService,
    AnalyticsStore,
    ChaosAnalyticsService,
    ServingFaultSpec,
    serve_analytics,
)
from repro.serving.chaos import run_storm

OVERLOAD_USERS = int(os.environ.get("REPRO_BENCH_USERS", "60000"))
STORM_CLIENTS = int(os.environ.get("REPRO_BENCH_STORM_CLIENTS", "16"))
OVERLOAD_SEED = 1603
#: Concurrency the server admits; the storm offers ~4x this.
MAX_INFLIGHT = max(1, STORM_CLIENTS // 4)
REQUESTS_PER_CLIENT = 25
#: Every admitted request stalls this long inside admission — the
#: stand-in for a slow store scan, and what makes capacity real.  It
#: must dominate per-request transport overhead (~1ms on loopback
#: keep-alive, each response being one send) or the storm never
#: overruns the budget.
STALL_RANGE = (0.04, 0.08)


@pytest.fixture(scope="module")
def overload_world():
    return SteamWorld.generate(
        WorldConfig(n_users=OVERLOAD_USERS, seed=OVERLOAD_SEED)
    )


def _storm_paths(dataset) -> list[str]:
    steamids = dataset.accounts.steamids()
    appids = dataset.catalog.appid
    return [
        f"/users/{int(steamids[0])}/summary",
        f"/users/{int(steamids[1])}/neighborhood?limit=10",
        f"/apps/{int(appids[0])}/stats",
        "/distributions/friends/percentile?q=50",
        "/distributions/owned_games/rank?value=10",
        "/tailfit/owned_games",
        "/homophily/market_value",
    ]


def _reference_bodies(store, paths) -> dict[str, bytes]:
    """The unloaded run: byte-exact 200 bodies, no chaos, no pressure."""
    with serve_analytics(AnalyticsService(store)) as server:
        host, port = server.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        bodies = {}
        try:
            for path in paths:
                conn.request("GET", path)
                response = conn.getresponse()
                assert response.status == 200
                bodies[path] = response.read()
        finally:
            conn.close()
    return bodies


def test_serving_overload_benchmark(overload_world, record, record_json):
    dataset = overload_world.dataset
    store = AnalyticsStore.build(dataset, jobs=2)
    paths = _storm_paths(dataset)
    reference = _reference_bodies(store, paths)

    obs = Obs()
    total = STORM_CLIENTS * REQUESTS_PER_CLIENT
    results_dir = pathlib.Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    storm_jsonl = results_dir / "serving_overload_requests.jsonl"
    storm_jsonl.unlink(missing_ok=True)  # the sink appends
    request_log = RequestLog(
        capacity=total, clock=obs.clock, jsonl_path=storm_jsonl
    )
    slo = SLOTracker(
        [SLOSpec(route="*", target=0.999, latency_threshold_s=5.0)],
        clock=obs.clock,
    )
    plan = FaultPlan(
        seed=7,
        default=ServingFaultSpec(stall=1.0, stall_range=STALL_RANGE),
    )
    service = ChaosAnalyticsService(
        store,
        plan,
        obs=obs,
        request_log=request_log,
        slo=slo,
        admission=AdmissionConfig(
            max_inflight=MAX_INFLIGHT, seed=42, breaker_threshold=0
        ),
    )
    with serve_analytics(service, obs=obs) as server:
        host, port = server.server.server_address[:2]
        start = time.perf_counter()
        result = run_storm(
            host,
            port,
            paths,
            clients=STORM_CLIENTS,
            requests_per_client=REQUESTS_PER_CLIENT,
            seed=9,
        )
        wall = time.perf_counter() - start

    accepted = result.count(200)
    shed = result.count(429)

    # -- the degradation contract, asserted outright ----------------------
    # No 5xx of any kind, no transport-level failures: under a 2x
    # storm the only outcomes are "served" and "shed with retry hint".
    assert set(result.status_counts) <= {200, 429}
    assert result.transport_errors == {}
    assert accepted + shed == total
    assert accepted > 0
    assert shed > 0, "storm never overran capacity; raise STORM_CLIENTS"
    assert len(result.retry_after) == shed
    assert all(hint > 0 for hint in result.retry_after)
    # Accepted responses are byte-identical to the unloaded run.
    for path, body in result.accepted:
        assert body == reference[path], f"degraded bytes on {path}"

    latencies = np.array(result.accepted_latencies)
    p50, p95, p99 = (
        float(np.percentile(latencies, q)) for q in (50, 95, 99)
    )
    shed_rate = shed / total
    throughput = total / wall
    stats = service.admission.stats()

    # -- request-record fidelity ------------------------------------------
    # The server has drained, so every dispatch committed its record:
    # counts must match the wire status for status, one record each.
    request_log.close()
    records = request_log.records()
    assert len(records) == total
    record_statuses: dict[int, int] = {}
    for rec in records:
        record_statuses[rec["status"]] = (
            record_statuses.get(rec["status"], 0) + 1
        )
    assert record_statuses == dict(result.status_counts)
    # Sheds name the guard that refused them; accepts carry bytes.
    assert all(
        rec["admission"].startswith("shed:")
        for rec in records
        if rec["status"] == 429
    )
    assert all(
        rec["bytes_out"] > 0 for rec in records if rec["status"] == 200
    )

    # -- SLO error budget -------------------------------------------------
    # Sheds spend budget by default: a storm past capacity must burn
    # hot enough to page on the 5m/1h pair (the whole run fits inside
    # the short window, so both windows see the same bad fraction).
    alerts = slo.evaluate()
    assert any(
        a.firing and a.window == "page" for a in alerts
    ), "a 4x-capacity storm must page"
    slo_snapshot = slo.snapshot()
    route_slo = slo_snapshot["routes"]
    budget_burned = 1.0 - min(
        entry["budget_remaining"] for entry in route_slo.values()
    )
    page_fires = sum(
        count
        for (_, window), count in slo.alert_fires.items()
        if window == "page"
    )

    # Artifacts for CI upload: the storm's full JSONL record stream
    # plus the exemplar-bearing metrics snapshot (trace-pinned latency
    # buckets) land next to the human-readable results.
    obs.write(results_dir / "serving_overload_metrics.json")

    record(
        "serving_overload",
        [
            f"world: {OVERLOAD_USERS} users (seed {OVERLOAD_SEED})",
            f"storm: {STORM_CLIENTS} clients x {REQUESTS_PER_CLIENT} "
            f"requests against {MAX_INFLIGHT} admission slots, "
            f"{STALL_RANGE[0] * 1e3:.0f}-{STALL_RANGE[1] * 1e3:.0f}ms "
            "injected stall per admitted request",
            f"outcome: {accepted} accepted, {shed} shed "
            f"(shed rate {shed_rate:.2f}), zero 5xx",
            f"accepted latency: p50 {p50 * 1e3:.1f}ms  "
            f"p95 {p95 * 1e3:.1f}ms  p99 {p99 * 1e3:.1f}ms",
            f"handled: {throughput:,.0f} req/s over {wall:.2f}s",
            f"admission: {stats['admitted']} admitted, shed by reason "
            f"{stats['shed']}",
            "byte-identity: all accepted bodies match the unloaded run",
            f"request records: {len(records)} (one per storm request, "
            "statuses match the wire)",
            f"slo: {budget_burned * 100:.1f}% of the error budget "
            f"burned, {page_fires} page alert(s) fired",
        ],
    )
    record_json(
        "serving_overload",
        [
            bench_metric("storm_clients", STORM_CLIENTS, "count"),
            bench_metric("max_inflight", MAX_INFLIGHT, "count"),
            bench_metric("requests", total, "count"),
            bench_metric("accepted", accepted, "count"),
            bench_metric("shed", shed, "count"),
            bench_metric("shed_rate", shed_rate, "ratio"),
            bench_metric("error_5xx", 0, "count"),
            bench_metric("accepted_p50_seconds", p50, "s"),
            bench_metric("accepted_p95_seconds", p95, "s"),
            bench_metric("accepted_p99_seconds", p99, "s"),
            bench_metric("handled_per_second", throughput, "req/s"),
            bench_metric(
                "byte_identical_rate",
                sum(
                    1
                    for path, body in result.accepted
                    if body == reference[path]
                )
                / max(1, len(result.accepted)),
                "ratio",
            ),
            bench_metric("request_records", len(records), "count"),
            bench_metric(
                "slo_budget_burned", budget_burned, "ratio"
            ),
            bench_metric("slo_page_alert_fires", page_fires, "count"),
        ],
        seed=OVERLOAD_SEED,
        n_users=OVERLOAD_USERS,
    )
