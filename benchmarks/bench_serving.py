"""Analytics serving tier benchmark (DESIGN.md §11).

Builds the query-optimized store over a synthetic world, then storms it
with concurrent simulated clients over real localhost HTTP — each
client works through a deterministic mix of the serving routes (user
summaries, percentile/rank lookups, tail fits, homophily, per-app
stats, neighborhoods).  Measures:

- store build wall clock, cold and warm (the warm rebuild must execute
  zero engine stages — that's the fingerprint-keyed memo contract),
- request latency quantiles (p50/p95/p99) across every client,
- *service-time* quantiles from the canonical request records
  (DESIGN.md §15): dispatch-to-write-end per request, excluding
  accept-queue and thread-scheduling wait — the stable tail signal
  that lets CI gate p95 again (client-observed p95 sits on the
  queueing cluster and is info-only),
- mean queue wait (client-observed latency minus recorded service
  time), recorded separately so queue pressure is visible, not mixed
  into the handler tail,
- aggregate throughput and the ok-rate (any non-200 fails the bench
  outright; the recorded ok_rate lets CI gate drift explicitly),
- request-log overhead: keep-alive requests against a server with and
  without the log attached, in interleaved rounds of 360 requests; the
  median per-pair ratio must stay within 5% (asserted outright,
  recorded as a ratio).

Scales via ``REPRO_BENCH_USERS`` (world size, default 60,000) and
``REPRO_BENCH_CLIENTS`` (simulated clients, default 2,000).  Clients
are multiplexed onto a bounded thread pool; each issues several
requests, so the default run pushes >10k requests through the server.
"""

from __future__ import annotations

import http.client
import os
import time
from concurrent.futures import ThreadPoolExecutor
from urllib.request import urlopen

import numpy as np
import pytest

from repro import SteamWorld, WorldConfig
from repro.engine import StageCache
from repro.obs import RequestLog, SLOTracker, bench_metric
from repro.obs.slo import SLOSpec
from repro.serving import AnalyticsService, AnalyticsStore, serve_analytics

SERVING_USERS = int(os.environ.get("REPRO_BENCH_USERS", "60000"))
SERVING_CLIENTS = int(os.environ.get("REPRO_BENCH_CLIENTS", "2000"))
SERVING_SEED = 1603
#: Handler threads are cheap (daemonic, mostly blocked on accept), but
#: the client side is bounded so the bench machine isn't thread-bombed.
CLIENT_POOL = min(64, SERVING_CLIENTS)
REQUESTS_PER_CLIENT = 6
#: Request-log overhead guard: interleaved bare/logged round pairs, and
#: passes over its 18-path mix per round (360 requests).
OVERHEAD_ROUNDS = 15
OVERHEAD_ROUND_REPEATS = 20


@pytest.fixture(scope="module")
def serving_world():
    return SteamWorld.generate(
        WorldConfig(n_users=SERVING_USERS, seed=SERVING_SEED)
    )


def _client_paths(index: int, steamids, appids) -> list[str]:
    """A deterministic per-client route mix touching every endpoint."""
    steamid = int(steamids[index % len(steamids)])
    appid = int(appids[index % len(appids)])
    q = (index * 7) % 101
    return [
        f"/users/{steamid}/summary",
        f"/users/{steamid}/neighborhood?limit=10",
        f"/apps/{appid}/stats",
        f"/distributions/friends/percentile?q={q}",
        f"/distributions/owned_games/rank?value={1 + index % 50}",
        ("/tailfit/owned_games", "/homophily/market_value")[index % 2],
    ]


def test_serving_benchmark(serving_world, tmp_path, record, record_json):
    dataset = serving_world.dataset
    cache = StageCache(tmp_path / "stage-cache")

    start = time.perf_counter()
    store = AnalyticsStore.build(dataset, jobs=2, cache=cache)
    build_seconds = time.perf_counter() - start
    assert store.build_run.cached == ()

    start = time.perf_counter()
    warm = AnalyticsStore.build(dataset, jobs=1, cache=cache)
    warm_seconds = time.perf_counter() - start
    # The serving memo contract: a warm rebuild executes zero stages.
    assert warm.build_run.executed == ()

    n_expected = SERVING_CLIENTS * REQUESTS_PER_CLIENT
    request_log = RequestLog(capacity=n_expected + REQUESTS_PER_CLIENT)
    slo = SLOTracker([SLOSpec(route="*", latency_threshold_s=5.0)])
    service = AnalyticsService(store, request_log=request_log, slo=slo)
    server = serve_analytics(service, access_log=False)
    base = server.base_url
    steamids = dataset.accounts.steamids()[:: max(1, dataset.n_users // 512)]
    appids = dataset.catalog.appid

    def run_client(index: int) -> list[float]:
        latencies = []
        for path in _client_paths(index, steamids, appids):
            t0 = time.perf_counter()
            with urlopen(base + path, timeout=60) as response:
                assert response.status == 200
                response.read()
            latencies.append(time.perf_counter() - t0)
        return latencies

    try:
        # Warmup wave: touch every route once serially, so the timed
        # storm measures steady-state serving, not interpreter/socket
        # first-touch costs.
        for path in _client_paths(0, steamids, appids):
            with urlopen(base + path, timeout=60) as response:
                response.read()
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=CLIENT_POOL) as pool:
            per_client = list(
                pool.map(run_client, range(SERVING_CLIENTS))
            )
        wall = time.perf_counter() - start
    finally:
        server.close()

    latencies = np.array([lat for client in per_client for lat in client])
    n_requests = len(latencies)
    assert n_requests == n_expected
    # Every request asserted 200 above, so a completed run is error-free
    # by construction; ok_rate is recorded for the CI drift gate.
    ok_rate = 1.0
    p50, p95, p99 = (
        float(np.percentile(latencies, q)) for q in (50, 95, 99)
    )
    throughput = n_requests / wall
    cache_stats = service.cache.stats()

    # -- service time from the canonical request records ------------------
    # Exactly one record per dispatched request (warmup wave included);
    # drop the warmup head so quantiles cover the timed storm only.
    records = request_log.records()[-n_requests:]
    assert request_log.stats()["total"] == n_requests + REQUESTS_PER_CLIENT
    assert all(r["status"] == 200 for r in records)
    service_times = np.array([r["total_s"] for r in records])
    service_p50, service_p95, service_p99 = (
        float(np.percentile(service_times, q)) for q in (50, 95, 99)
    )
    # Queue wait: what the client saw minus what the server spent.
    # Client latencies and records cover the same request population,
    # so the means subtract even though individual requests can't be
    # paired up across threads.
    queue_wait_mean = float(latencies.mean() - service_times.mean())
    # The clean run keeps its whole error budget: no burn alert fires.
    assert not any(alert.firing for alert in slo.evaluate())

    # -- request-log overhead guard ---------------------------------------
    # Keep-alive requests against an instrumented server must stay
    # within 5% of a bare one: the wide-event record (plus the exemplar
    # it pins into the latency histogram, plus the SLO window
    # increments) should be a handful of clock reads and a dict per
    # request, not a tax on serving throughput.  The mix is cache-warm
    # so the substrate — not the store — is the denominator, which is
    # the harshest framing for a fixed per-request cost.  A round is 360
    # requests (~0.1 s), long enough that timer and scheduler jitter
    # stay small against it; bare and logged rounds interleave,
    # alternating which goes first, so host drift hits both sides
    # alike; the guard is the median of the per-pair ratios.
    overhead_paths = [
        f"/users/{int(steamids[i % len(steamids)])}/summary"
        for i in range(16)
    ] + ["/tailfit/friends", "/homophily/owned_games"]

    def overhead_server(with_log: bool):
        return serve_analytics(
            AnalyticsService(
                store,
                request_log=RequestLog(capacity=64) if with_log else None,
                slo=SLOTracker([SLOSpec(route="*")]) if with_log else None,
            ),
            access_log=False,
        )

    def round_seconds(conn: http.client.HTTPConnection) -> float:
        t0 = time.perf_counter()
        for _ in range(OVERHEAD_ROUND_REPEATS):
            for path in overhead_paths:
                conn.request("GET", path)
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        return time.perf_counter() - t0

    with overhead_server(False) as bare, overhead_server(True) as logged:
        conns = [
            http.client.HTTPConnection(
                *running.server.server_address[:2], timeout=60
            )
            for running in (bare, logged)
        ]
        try:
            for conn in conns:  # warms the cache, socket and thread
                round_seconds(conn)
            bare_rounds, logged_rounds = [], []
            for round_index in range(OVERHEAD_ROUNDS):
                if round_index % 2 == 0:
                    bare_rounds.append(round_seconds(conns[0]))
                    logged_rounds.append(round_seconds(conns[1]))
                else:
                    logged_rounds.append(round_seconds(conns[1]))
                    bare_rounds.append(round_seconds(conns[0]))
        finally:
            for conn in conns:
                conn.close()
    overhead_ratio = float(
        np.median(np.array(logged_rounds) / np.array(bare_rounds))
    )
    per_request = OVERHEAD_ROUND_REPEATS * len(overhead_paths)
    bare_request_s = float(np.median(bare_rounds)) / per_request
    logged_request_s = float(np.median(logged_rounds)) / per_request
    assert overhead_ratio < 1.05, (
        f"request logging costs {(overhead_ratio - 1) * 100:.1f}% "
        "of serving throughput; the budget is 5%"
    )

    record(
        "serving",
        [
            f"world: {SERVING_USERS} users (seed {SERVING_SEED})",
            f"store build: {build_seconds:.2f}s cold, "
            f"{warm_seconds:.2f}s warm "
            f"({len(store.build_run.executed)} stages -> 0 stages)",
            f"clients: {SERVING_CLIENTS} x {REQUESTS_PER_CLIENT} requests "
            f"on a {CLIENT_POOL}-thread pool",
            f"latency: p50 {p50 * 1e3:.1f}ms  p95 {p95 * 1e3:.1f}ms  "
            f"p99 {p99 * 1e3:.1f}ms",
            f"service time (per request record): "
            f"p50 {service_p50 * 1e3:.1f}ms  "
            f"p95 {service_p95 * 1e3:.1f}ms  "
            f"p99 {service_p99 * 1e3:.1f}ms  "
            f"(mean queue wait {queue_wait_mean * 1e3:.1f}ms)",
            f"throughput: {throughput:,.0f} req/s, ok_rate {ok_rate:.3f}",
            f"response cache: {cache_stats['hits']} hits / "
            f"{cache_stats['misses']} misses",
            f"request-log overhead: {(overhead_ratio - 1) * 100:+.1f}% "
            f"on keep-alive serving (median of {OVERHEAD_ROUNDS} "
            f"interleaved pairs of {per_request}-request rounds; "
            f"{bare_request_s * 1e3:.3f}ms bare vs "
            f"{logged_request_s * 1e3:.3f}ms logged per request)",
        ],
    )
    record_json(
        "serving",
        [
            bench_metric("build_seconds", build_seconds, "s"),
            bench_metric("warm_rebuild_seconds", warm_seconds, "s"),
            bench_metric("clients", SERVING_CLIENTS, "count"),
            bench_metric("requests", n_requests, "count"),
            bench_metric("p50_seconds", p50, "s"),
            bench_metric("p95_seconds", p95, "s"),
            bench_metric("p99_seconds", p99, "s"),
            bench_metric("p50_service_seconds", service_p50, "s"),
            bench_metric("p95_service_seconds", service_p95, "s"),
            bench_metric("p99_service_seconds", service_p99, "s"),
            bench_metric(
                "queue_wait_mean_seconds", queue_wait_mean, "s"
            ),
            bench_metric(
                "reqlog_overhead_ratio", overhead_ratio, "ratio"
            ),
            bench_metric("requests_per_second", throughput, "req/s"),
            bench_metric("ok_rate", ok_rate, "ratio"),
            bench_metric(
                "cache_hit_rate",
                cache_stats["hits"] / max(1, n_requests),
                "ratio",
            ),
        ],
        seed=SERVING_SEED,
        n_users=SERVING_USERS,
    )
