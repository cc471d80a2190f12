"""Response-cache invalidation at a store swap, the only place it happens.

``swap_store(store, delta)`` moves the cache to the new store's
fingerprint: it evicts exactly the entries the delta could have
changed and keeps the rest in place, serving hits; without a linking
delta it empties the cache.  A body read from a retired store is
dropped at ``put`` (DESIGN.md §12).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import constants
from repro.delta.model import DatasetDelta, dataset_delta
from repro.serving import AnalyticsService, AnalyticsStore, ResponseCache
from repro.simworld.evolution import EvolveConfig, evolve


@pytest.fixture(scope="module")
def swap_pair(small_world):
    """Prior store, evolved store, and the delta linking them — a
    playtime-only 1% step, the canonical narrow delta."""
    cfg = EvolveConfig(
        account_growth=0.0,
        buy_rate=0.0,
        friend_form_rate=0.0,
        friend_drop_rate=0.0,
        play_rate=0.01,
    )
    step = next(evolve(small_world, steps=1, seed=17, config=cfg))
    prior_ds = small_world.dataset
    delta = dataset_delta(
        prior_ds,
        step.dataset,
        changed_steamids=step.delta.changed_offsets
        + constants.STEAMID_BASE,
        new_steamids=step.delta.new_offsets + constants.STEAMID_BASE,
    )
    prior_store = AnalyticsStore.build(prior_ds, max_tail=2_000)
    new_store = AnalyticsStore.build(step.dataset, max_tail=2_000)
    return prior_store, new_store, delta


class TestRetargetSwap:
    def test_untouched_attribute_entry_survives_and_hits(self, swap_pair):
        prior_store, new_store, delta = swap_pair
        service = AnalyticsService(prior_store)
        before = service.dispatch("/tailfit/friends", {})
        stats = service.swap_store(new_store, delta)
        assert stats is not None
        assert stats["retargeted"] >= 1
        # The survivor answers under the NEW fingerprint without
        # recomputing — and byte-identically, since a playtime delta
        # cannot move the friend-degree distribution.
        hits_before = service.cache.stats()["hits"]
        assert service.dispatch("/tailfit/friends", {}) == before
        assert service.cache.stats()["hits"] == hits_before + 1

    def test_stale_attribute_entry_is_evicted(self, swap_pair):
        prior_store, new_store, delta = swap_pair
        service = AnalyticsService(prior_store)
        path = "/distributions/total_playtime_hours/percentile"
        service.dispatch(path, {"q": "95"})
        stats = service.swap_store(new_store, delta)
        assert stats["evicted"] >= 1
        hits_before = service.cache.stats()["hits"]
        after = service.dispatch(path, {"q": "95"})
        # Recomputed, not served stale: no hit, and the payload is what
        # the new store computes fresh.
        assert service.cache.stats()["hits"] == hits_before
        assert after == new_store.distribution_percentile(
            "total_playtime_hours", 95
        )

    def test_neighborhood_of_unaffected_user_survives(self, swap_pair):
        prior_store, new_store, delta = swap_pair
        changed = {int(s) for s in delta.changed_steamids}
        sids = prior_store.dataset.accounts.steamids()
        target = None
        for u in range(len(sids)):
            sid = int(sids[u])
            if sid in changed:
                continue
            payload = prior_store.user_neighborhood(sid)
            if payload["friends"] and all(
                f["steamid"] not in changed for f in payload["friends"]
            ):
                target = sid
                break
        assert target is not None, "no fully-unaffected user found"

        service = AnalyticsService(prior_store)
        path = f"/users/{target}/neighborhood"
        before = service.dispatch(path, {})
        service.swap_store(new_store, delta)
        hits_before = service.cache.stats()["hits"]
        assert service.dispatch(path, {}) == before
        assert service.cache.stats()["hits"] == hits_before + 1

    def test_changed_user_summary_is_evicted(self, swap_pair):
        prior_store, new_store, delta = swap_pair
        target = int(delta.changed_steamids[0])
        service = AnalyticsService(prior_store)
        path = f"/users/{target}/summary"
        service.dispatch(path, {})
        service.swap_store(new_store, delta)
        hits_before = service.cache.stats()["hits"]
        after = service.dispatch(path, {})
        assert service.cache.stats()["hits"] == hits_before
        assert after == new_store.user_summary(target)

    def test_mismatched_delta_falls_back_to_structural(self, swap_pair):
        prior_store, new_store, _ = swap_pair
        service = AnalyticsService(prior_store)
        before = service.dispatch("/tailfit/friends", {})
        bogus = DatasetDelta(
            prior_fingerprint="not-the-prior",
            fingerprint=new_store.fingerprint,
        )
        assert service.swap_store(new_store, bogus) is None
        # Not the swap this delta describes, so the swap emptied the
        # cache: the same question misses and is recomputed.
        hits_before = service.cache.stats()["hits"]
        after = service.dispatch("/tailfit/friends", {})
        assert service.cache.stats()["hits"] == hits_before
        # Still the same answer — friends never moved — just recomputed.
        assert after == before

    def test_swap_without_delta_returns_none(self, swap_pair):
        prior_store, new_store, _ = swap_pair
        service = AnalyticsService(prior_store)
        assert service.swap_store(new_store) is None


class TestRetiredReads:
    def test_put_from_retired_store_is_dropped(self):
        key = ("/tailfit/friends", ())
        tags = frozenset({"attr:friends"})
        cache = ResponseCache("fp-old")
        cache.retarget("fp-new", frozenset())
        cache.put(key, {"from": "old"}, "fp-old", tags=tags)
        assert len(cache) == 0
        assert cache.get(key) is None
        cache.put(key, {"from": "new"}, "fp-new", tags=tags)
        assert cache.get(key) == {"from": "new"}

    def test_read_blocked_across_swap_leaves_no_body(self, swap_pair):
        """A read that began on the prior store and finishes after a
        delta swap marking its user stale must not plant its body."""
        prior_store, new_store, delta = swap_pair
        target = int(delta.changed_steamids[0])
        blocking = _BlockingStore(prior_store)
        service = AnalyticsService(blocking)
        path = f"/users/{target}/summary"
        result = {}
        reader = threading.Thread(
            target=lambda: result.update(body=service.dispatch(path, {}))
        )
        reader.start()
        assert blocking.entered.wait(timeout=30)
        assert service.swap_store(new_store, delta) is not None
        blocking.release.set()
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert result["body"] == prior_store.user_summary(target)

        after = service.dispatch(path, {})
        assert after == new_store.user_summary(target)
        assert after != result["body"]


class _BlockingStore:
    """A store whose user summaries wait on ``release`` once entered."""

    def __init__(self, store: AnalyticsStore) -> None:
        self._store = store
        self.entered = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self._store, name)

    def user_summary(self, steamid: int) -> dict:
        self.entered.set()
        self.release.wait(timeout=30)
        return self._store.user_summary(steamid)
