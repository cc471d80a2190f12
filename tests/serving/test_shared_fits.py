"""The store's tail fits are Table 4's row stages.

On one stage cache, a study run leaves every ``/tailfit`` fit cached:
the store build then executes only its own index, homophily and app
stages, and serves the same bytes as a cold, cache-less store.
"""

from __future__ import annotations

import json

from repro import SteamStudy
from repro.core.distributions import ATTRIBUTE_ROWS
from repro.core.percentiles import ATTRIBUTES
from repro.engine import StageCache
from repro.serving import AnalyticsService, AnalyticsStore


def _tailfit_bodies(store: AnalyticsStore) -> dict[str, str]:
    service = AnalyticsService(store)
    return {
        attribute: json.dumps(service.dispatch(f"/tailfit/{attribute}", {}))
        for attribute in ATTRIBUTES
    }


def test_store_after_study_fits_no_tail(tmp_path, small_dataset):
    cache = StageCache(tmp_path / "stages")
    SteamStudy.from_dataset(small_dataset).run(cache=cache)
    shared = AnalyticsStore.build(small_dataset, cache=cache)

    assert set(shared.build_run.executed) == {
        *(f"serving_index:{attribute}" for attribute in ATTRIBUTES),
        "serving_homophily",
        "serving_app_stats",
    }
    assert set(shared.build_run.cached) == {
        f"table4:{ATTRIBUTE_ROWS[attribute]}" for attribute in ATTRIBUTES
    }
    cold = AnalyticsStore.build(small_dataset)
    assert _tailfit_bodies(shared) == _tailfit_bodies(cold)
