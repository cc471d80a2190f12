"""The serving tier's determinism and caching contract:

- parallel store builds are byte-identical to serial ones,
- a warm stage cache rebuilds the store without executing any stage,
- any dataset mutation (new fingerprint) invalidates the stage cache
  by key, and a store swap empties the response cache,
- concurrent HTTP clients asking the same question get the same bytes.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.engine import StageCache
from repro.serving import AnalyticsService, AnalyticsStore, serve_analytics

from tests.serving.conftest import make_tiny_dataset


def _all_route_bodies(store: AnalyticsStore, dataset) -> dict[str, str]:
    """Canonical JSON for a representative query of every route."""
    service = AnalyticsService(store)
    steamid = int(dataset.accounts.steamids()[0])
    appid = int(dataset.catalog.appid[0])
    queries = {
        "summary": (f"/users/{steamid}/summary", {}),
        "neighborhood": (f"/users/{steamid}/neighborhood", {"limit": "5"}),
        "apps": (f"/apps/{appid}/stats", {}),
        "percentile": ("/distributions/friends/percentile", {"q": "95"}),
        "rank": ("/distributions/owned_games/rank", {"value": "10"}),
        "tailfit": ("/tailfit/owned_games", {}),
        "homophily": ("/homophily/market_value", {}),
    }
    return {
        name: json.dumps(service.dispatch(path, params), sort_keys=True)
        for name, (path, params) in queries.items()
    }


def test_parallel_build_is_byte_identical(small_dataset):
    serial = AnalyticsStore.build(small_dataset, jobs=1, max_tail=2_000)
    parallel = AnalyticsStore.build(small_dataset, jobs=2, max_tail=2_000)
    assert parallel.build_run.jobs == 2
    assert _all_route_bodies(serial, small_dataset) == _all_route_bodies(
        parallel, small_dataset
    )


def test_warm_cache_executes_zero_stages(tmp_path, small_dataset):
    cache = StageCache(tmp_path / "stages")
    cold = AnalyticsStore.build(small_dataset, cache=cache, max_tail=2_000)
    assert len(cold.build_run.executed) == cold.build_run.n_stages
    warm = AnalyticsStore.build(small_dataset, cache=cache, max_tail=2_000)
    assert warm.build_run.executed == ()
    assert len(warm.build_run.cached) == warm.build_run.n_stages
    assert _all_route_bodies(cold, small_dataset) == _all_route_bodies(
        warm, small_dataset
    )


def test_dataset_mutation_invalidates_stage_cache(tmp_path):
    dataset = make_tiny_dataset(1, owned=((1, 120, 30),))
    cache = StageCache(tmp_path / "stages")
    first = AnalyticsStore.build(dataset, cache=cache)
    assert len(first.build_run.executed) == first.build_run.n_stages

    # Reprice a product: stages are keyed by the columns they read, so
    # exactly the price-reading stages re-execute and the rest stay
    # cached.
    mutated = dataclasses.replace(
        dataset,
        catalog=dataclasses.replace(
            dataset.catalog,
            price_cents=np.array([0, 999], dtype=np.int64),
        ),
    )
    assert mutated.fingerprint() != dataset.fingerprint()
    rebuilt = AnalyticsStore.build(mutated, cache=cache)
    executed = set(rebuilt.build_run.executed)
    assert executed == {
        "serving_index:market_value",
        "table4:account market values",
        "fig11:market_value",
        "fig11_homophily",
    }
    assert set(rebuilt.build_run.cached) == {
        name
        for name in first.build_run.executed
        if name not in executed
    }
    # And the mutation is visible in the served payloads.
    assert (
        rebuilt.user_summary(dataset.accounts.steamids()[0])["attributes"][
            "market_value"
        ]["value"]
        == 9.99
    )


def test_store_swap_invalidates_response_cache():
    dataset = make_tiny_dataset(1, owned=((1, 120, 30),))
    service = AnalyticsService(AnalyticsStore.build(dataset))
    path = "/distributions/market_value/percentile"
    before = service.dispatch(path, {"q": "50"})
    assert before["value"] == 4.99

    mutated = dataclasses.replace(
        dataset,
        catalog=dataclasses.replace(
            dataset.catalog,
            price_cents=np.array([0, 999], dtype=np.int64),
        ),
    )
    service.swap_store(AnalyticsStore.build(mutated))
    after = service.dispatch(path, {"q": "50"})
    assert after["value"] == 9.99
    # Both responses were computed (distinct keys), never cross-served.
    assert service.cache.stats()["hits"] == 0


def test_concurrent_clients_get_identical_bytes(
    serving_store, small_dataset
):
    server = serve_analytics(serving_store, access_log=False)
    steamid = int(small_dataset.accounts.steamids()[3])
    paths = (
        f"/users/{steamid}/summary",
        "/distributions/friends/percentile?q=99",
        "/tailfit/owned_games",
    )
    results: dict[tuple[str, int], bytes] = {}
    errors: list[Exception] = []

    def client(worker: int) -> None:
        try:
            for path in paths:
                with urllib.request.urlopen(
                    server.base_url + path, timeout=30
                ) as response:
                    results[(path, worker)] = response.read()
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(8)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        server.close()
    assert not errors
    for path in paths:
        bodies = {results[(path, i)] for i in range(8)}
        assert len(bodies) == 1, f"divergent bodies for {path}"
