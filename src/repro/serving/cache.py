"""Request-keyed LRU response cache for the analytics serving tier.

Every entry is a response read from one store: the cache holds that
store's fingerprint, and keys entries by request alone (the path plus
the sorted ``(name, value)`` parameter pairs).  A store swap is the
only place the cache is invalidated: :meth:`ResponseCache.retarget`
moves the cache to the new fingerprint before the new store is
published.

A swap with a delta keeps what the delta cannot have changed.  Entries
carry the **tags** of what they read (``user:<steamid>``,
``app:<appid>``, ``attr:<name>``, ``app_stats``); entries whose tags
intersect the delta's
:meth:`~repro.delta.model.DatasetDelta.stale_tags` are evicted, the
rest stay in place and keep serving hits.  Untagged entries are
conservatively evicted.  A swap without a delta empties the cache.

:meth:`ResponseCache.put` takes the fingerprint of the store the
payload was read from and drops the payload unless that is the
current one, so a read that began on a retired store can never plant
its body after the swap.

Thread safety matters here — every HTTP server handler
thread consults the cache concurrently — so all access is under one
lock; entries are fully materialized response payloads (plain dicts),
so the critical section is a dict move, never a recompute.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.obs import Obs
from repro.steamapi.deadline import check_deadline

__all__ = ["CacheEntry", "ResponseCache"]


@dataclass(slots=True)
class CacheEntry:
    """One cached response plus what it read (for delta eviction)."""

    payload: Any
    #: Tags naming the users/apps/attributes the response depends on;
    #: ``None`` means unknown — such entries never survive a retarget.
    tags: frozenset[str] | None = None


class ResponseCache:
    """A bounded, thread-safe LRU of response payloads read from the
    store with fingerprint :attr:`fingerprint`."""

    def __init__(
        self, fingerprint: str, maxsize: int = 4096, obs: Obs | None = None
    ) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.fingerprint = fingerprint
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._retargeted = 0
        self._m_hits = self._m_misses = self._m_evictions = None
        if obs is not None:
            self._m_hits = obs.counter(
                "serving_cache_hits", "Serving responses served from cache"
            )
            self._m_misses = obs.counter(
                "serving_cache_misses", "Serving responses computed fresh"
            )
            self._m_evictions = obs.counter(
                "serving_cache_evictions", "Serving cache LRU evictions"
            )

    def get(self, key: Hashable) -> Any | None:
        """The cached payload, or ``None`` on a miss.

        Checks the ambient request deadline first: a request that has
        already blown its budget gets its 504 here instead of holding
        the cache lock (and then the store) for a doomed response.
        """
        check_deadline("cache")
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                if self._m_hits is not None:
                    self._m_hits.inc()
                return entry.payload
            self._misses += 1
            if self._m_misses is not None:
                self._m_misses.inc()
            return None

    def put(
        self,
        key: Hashable,
        payload: Any,
        fingerprint: str,
        tags: frozenset[str] | None = None,
    ) -> None:
        """Insert (or refresh) ``key`` with a payload read from the store
        with ``fingerprint``; evicts the LRU tail when full.  A payload
        from any store but the current one is dropped."""
        entry = CacheEntry(payload=payload, tags=tags)
        with self._lock:
            if fingerprint != self.fingerprint:
                return
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
                if self._m_evictions is not None:
                    self._m_evictions.inc()

    def retarget(
        self, fingerprint: str, stale_tags: frozenset[str] | None = None
    ) -> dict[str, int]:
        """Move the cache to the store with ``fingerprint``.

        With ``stale_tags`` (a delta linking the two stores), evicts
        every entry whose tags intersect them, or whose tags are
        unknown, and keeps the rest in LRU order.  With ``None``,
        evicts everything.
        """
        with self._lock:
            self.fingerprint = fingerprint
            survivors: OrderedDict[Hashable, CacheEntry] = OrderedDict()
            if stale_tags is not None:
                for key, entry in self._entries.items():
                    if entry.tags is not None and not entry.tags & stale_tags:
                        survivors[key] = entry
            evicted = len(self._entries) - len(survivors)
            kept = len(survivors)
            self._entries = survivors
            self._evictions += evicted
            self._retargeted += kept
            if self._m_evictions is not None and evicted:
                self._m_evictions.inc(evicted)
            return {"evicted": evicted, "retargeted": kept}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "retargeted": self._retargeted,
            }
