"""Canonical per-request records ("wide events") for the serving tier.

Aggregate telemetry says the p99 is slow; it cannot say *which*
requests were slow or *where* their time went.  This module keeps one
canonical structured record per dispatched request — trace identity,
route template, final status (including the 429/499/503/504
shed/abort paths), a per-layer latency breakdown (admission wait,
handler, cache lookup, store read, serialize, socket write), the
admission decision, breaker state, cache hit/miss, the ``degraded``
flag, remaining deadline budget, bytes written, and the injected-fault
kind under chaos — in a bounded in-memory ring, optionally appended as
JSONL through :mod:`repro.fsutil`.

The pieces:

- :class:`RequestLog` — the ring plus the JSONL sink.  All clock reads
  go through one injectable clock, so a serial run under a
  :class:`~repro.obs.clock.FakeClock` produces *byte-identical* record
  streams (the determinism contract every obs artifact honours).
- :class:`RecordBuilder` — one request's record, opened by
  :meth:`RequestLog.start` and published by :meth:`RequestLog.commit`.
  It is an explicit value: whoever opens it passes it down the serving
  path and commits it once.  Layers time themselves into a fixed
  ``<layer>_s`` slot (:meth:`RecordBuilder.timed`) and annotate with
  plain attribute writes; ``__slots__`` rejects a misspelt field.  In
  process, :meth:`~repro.serving.api.AnalyticsService.dispatch` opens
  and commits the record; over HTTP the handler opens it before
  dispatch, adds the facts only the wire knows (final status,
  serialize and socket-write time, bytes out) and commits it in a
  ``finally``, so an escaping socket error still leaves exactly one
  record.  The ring keeps committed builders; the record dicts are
  built, and their seconds rounded, when the ring is read.

Records are plain JSON-shaped dicts.  :func:`encode_record` is the
canonical serialization (sorted keys, compact separators, one line):
two same-seed serial runs under a fake clock encode to the same bytes.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable, Iterable

from repro.fsutil import LineSink

__all__ = [
    "LAYERS",
    "RecordBuilder",
    "RequestLog",
    "encode_record",
]

#: The per-request latency breakdown, in pipeline order.  Every record
#: carries all six (zero when a layer was never reached), so readers
#: never need existence checks and encoded records keep one shape.
LAYERS = ("admission", "handler", "cache", "store", "serialize", "write")

#: The builder slot each layer's seconds accumulate in.
_LAYER_SLOTS = tuple((name, f"{name}_s") for name in LAYERS)

#: Seconds are rounded to nanosecond precision: enough for any real
#: latency, and it keeps JSONL lines compact and stable.
_ROUND = 9


def _seconds(value: float) -> float:
    return round(float(value), _ROUND)


def encode_record(record: dict) -> bytes:
    """The canonical one-line JSON encoding of a committed record."""
    return json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


class RecordBuilder:
    """One request's record: mutable while the request is in flight.

    Opened by :meth:`RequestLog.start`; fields are plain attributes so
    the dispatch hot path pays attribute stores, not dict churn.
    :meth:`RequestLog.commit` stamps ``total_s`` and ``seq`` and keeps
    the builder itself in the ring; the record dict
    (:meth:`as_record`) is built only when the ring is read.
    """

    __slots__ = (
        "clock",
        "start_s",
        "path",
        "route",
        "status",
        "admission",
        "breaker",
        "cache",
        "degraded",
        "fault",
        "deadline_remaining_s",
        "bytes_out",
        "trace_id",
        "span_id",
        *(slot for _, slot in _LAYER_SLOTS),
        "total_s",
        "seq",
    )

    def __init__(self, clock: Callable[[], float], path: str) -> None:
        self.clock = clock
        self.start_s = clock()
        self.path = path
        self.route = "<unmatched>"
        self.status: int | None = None
        self.admission = "bypass"
        self.breaker = "closed"
        self.cache = "bypass"
        self.degraded = False
        self.fault: str | None = None
        self.deadline_remaining_s: float | None = None
        self.bytes_out = 0
        self.trace_id: str | None = None
        self.span_id: int | None = None
        self.admission_s = self.handler_s = self.cache_s = 0.0
        self.store_s = self.serialize_s = self.write_s = 0.0

    def timed(self, slot: str, fn: Callable, *args):
        """``fn(*args)``, its time added to the ``slot`` layer (e.g.
        ``"store_s"``) whether it returns or raises: two clock reads."""
        start = self.clock()
        try:
            return fn(*args)
        finally:
            setattr(self, slot, getattr(self, slot) + (self.clock() - start))

    def as_record(self) -> dict:
        """The committed record as a canonical JSON-shaped dict."""
        return {
            "seq": self.seq,
            "start_s": _seconds(self.start_s),
            "total_s": self.total_s,
            "path": self.path,
            "route": self.route,
            "status": int(self.status or 0),
            "admission": self.admission,
            "breaker": self.breaker,
            "cache": self.cache,
            "degraded": bool(self.degraded),
            "fault": self.fault,
            "deadline_remaining_s": (
                None
                if self.deadline_remaining_s is None
                else _seconds(self.deadline_remaining_s)
            ),
            "bytes_out": int(self.bytes_out),
            "trace_id": self.trace_id or "-",
            "span_id": self.span_id,
            "layers": {
                name: _seconds(getattr(self, slot))
                for name, slot in _LAYER_SLOTS
            },
        }


class RequestLog:
    """A bounded ring of canonical request records, plus a JSONL sink.

    ``capacity`` bounds memory: under a storm the ring holds the most
    recent ``capacity`` records and counts the rest as dropped (the
    JSONL sink, when configured, still sees every record).  ``clock``
    defaults to :func:`time.monotonic`; inject a
    :class:`~repro.obs.clock.FakeClock` for byte-identical streams.
    """

    def __init__(
        self,
        capacity: int = 1024,
        clock: Callable[[], float] | None = None,
        jsonl_path: str | Path | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._ring: list[RecordBuilder] = []
        self._next_slot = 0
        self._seq = 0
        self._sink = (
            LineSink(jsonl_path) if jsonl_path is not None else None
        )
        self.jsonl_path = Path(jsonl_path) if jsonl_path else None

    # -- building -------------------------------------------------------------

    def start(self, path: str) -> RecordBuilder:
        """Open a record for one request (reads the clock once)."""
        return RecordBuilder(self.clock, path)

    def commit(self, builder: RecordBuilder) -> int:
        """Publish a builder as a record; returns its ``seq``.

        Reads the clock once, for ``total_s``.  Call it once per
        builder, and change the builder no more: the ring keeps it.
        """
        builder.total_s = _seconds(builder.clock() - builder.start_s)
        with self._lock:
            builder.seq = seq = self._seq
            self._seq += 1
            if len(self._ring) < self.capacity:
                self._ring.append(builder)
            else:
                self._ring[self._next_slot] = builder
                self._next_slot = (self._next_slot + 1) % self.capacity
            sink = self._sink
        if sink is not None:
            sink.write_line(encode_record(builder.as_record()))
        return seq

    # -- reading --------------------------------------------------------------

    def records(self) -> list[dict]:
        """Every retained record, oldest first."""
        with self._lock:
            ring = (
                self._ring[self._next_slot :] + self._ring[: self._next_slot]
            )
        return [builder.as_record() for builder in ring]

    def tail(
        self,
        n: int = 50,
        route: str | None = None,
        status: int | None = None,
        min_seconds: float | None = None,
    ) -> list[dict]:
        """The last ``n`` retained records matching the filters,
        oldest first (the shape ``repro obs tail`` and
        ``/debug/requests`` print)."""
        matched = [
            record
            for record in self.records()
            if (route is None or record["route"] == route)
            and (status is None or record["status"] == status)
            and (
                min_seconds is None or record["total_s"] >= min_seconds
            )
        ]
        return matched[-max(0, n) :]

    def stats(self) -> dict:
        with self._lock:
            size = len(self._ring)
            total = self._seq
        return {
            "capacity": self.capacity,
            "size": size,
            "total": total,
            "dropped": max(0, total - size),
        }

    def close(self) -> None:
        """Flush and fsync the JSONL sink, if any."""
        if self._sink is not None:
            self._sink.close()


# -- offline readers ----------------------------------------------------------


def read_jsonl(path: str | Path) -> Iterable[dict]:
    """Yield records from a JSONL request log, tolerating a torn tail.

    Appends are flushed per line but not atomic: a crash can leave a
    partial final line, which is skipped rather than raised.
    """
    with open(path, "rb") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue
