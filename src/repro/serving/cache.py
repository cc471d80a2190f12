"""Fingerprint-keyed LRU response cache for the analytics serving tier.

Keys are produced by :func:`repro.engine.fingerprint.query_key`, which
folds the serving store's dataset fingerprint into every key.  That
makes invalidation structural rather than procedural: swapping in a
store built from a changed dataset shifts every key, so stale bodies
age out of the LRU instead of ever being served.

Structural invalidation alone throws the whole cache away on every
swap, which defeats the point of an *incremental* pipeline: after a 1%
delta, 99% of cached bodies are still exactly right.  So entries carry
the **tags** of what they read (``user:<steamid>``, ``app:<appid>``,
``attr:<name>``, ``app_stats``), and :meth:`ResponseCache.retarget`
moves a swap's survivors under the new fingerprint's keys: entries
whose tags intersect the delta's
:meth:`~repro.delta.model.DatasetDelta.stale_tags` are evicted, the
rest are re-keyed and keep serving hits.  Untagged entries (no tag
derivation, or inserted by older callers) are conservatively evicted.

Thread safety matters here — every HTTP server handler
thread consults the cache concurrently — so all access is under one
lock; entries are fully materialized response payloads (plain dicts),
so the critical section is a dict move, never a recompute.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs import Obs
from repro.steamapi.deadline import check_deadline

__all__ = ["CacheEntry", "ResponseCache"]


@dataclass(slots=True)
class CacheEntry:
    """One cached response plus what it read (for delta retargeting)."""

    payload: Any
    #: Tags naming the users/apps/attributes the response depends on;
    #: ``None`` means unknown — such entries never survive a retarget.
    tags: frozenset[str] | None = None
    #: Request identity, for re-keying (``params`` is None when empty).
    path: str | None = None
    params: dict | None = None


class ResponseCache:
    """A bounded, thread-safe LRU of response payloads."""

    def __init__(self, maxsize: int = 4096, obs: Obs | None = None) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
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

    def get(self, key: str) -> Any | None:
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
        key: str,
        payload: Any,
        tags: frozenset[str] | None = None,
        path: str | None = None,
        params: dict | None = None,
    ) -> None:
        """Insert (or refresh) ``key``; evicts the LRU tail when full."""
        entry = CacheEntry(
            payload=payload,
            tags=tags,
            path=path,
            params=dict(params) if params else None,
        )
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
                if self._m_evictions is not None:
                    self._m_evictions.inc()

    def retarget(
        self,
        stale_tags: frozenset[str],
        rekey: Callable[[str, dict], str],
    ) -> dict[str, int]:
        """Carry unaffected entries across a store swap.

        Evicts every entry whose tags intersect ``stale_tags`` (or
        whose tags are unknown), and re-keys the rest via
        ``rekey(path, params)`` — the caller closes over the *new*
        store fingerprint, so survivors keep hitting after the swap.
        LRU recency order is preserved.
        """
        with self._lock:
            survivors: OrderedDict[str, CacheEntry] = OrderedDict()
            evicted = kept = 0
            for entry in self._entries.values():
                if (
                    entry.tags is None
                    or entry.path is None
                    or entry.tags & stale_tags
                ):
                    evicted += 1
                    continue
                survivors[rekey(entry.path, entry.params or {})] = entry
                kept += 1
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
