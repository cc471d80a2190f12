"""In-memory spans recorded around calls into the program's layers.

The benchmark traces from outside: it wraps public functions of the
program (``HttpTransport.request``, ``SteamApiService.dispatch``, ...)
and records one span per call.  A span is the tuple
``(id, parent, name, op, start, end)``; ``op`` is the benchmark op the
call served.  Spans stay in memory and are written out when the run
ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  Spans whose name starts with ``op:``
belong to the benchmark itself (the loop around one op); their self
time is glue between layers and is reported as ``unattributed``
together with whatever the traced window spent outside every span.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Name prefix of spans owned by the benchmark, not by a program layer.
OP_PREFIX = "op:"


class Tracer:
    """Records spans while :attr:`on`; wrappers are pass-through when off.

    Parents are the innermost open span on the calling thread.  A call
    that runs on another thread on behalf of a client (a server handler
    thread answering a request) finds its parent with ``parent_of``,
    usually :meth:`published` on a key the client span was opened under.
    """

    def __init__(self) -> None:
        self.on = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._published: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def published(self, key):
        """The ``(span_id, op)`` a client opened under ``key``, if any."""
        return self._published.get(key)

    @contextmanager
    def span(self, name: str, op=None, parent=None, publish_as=None):
        """Record one span around the ``with`` body (no-op when off)."""
        if not self.on:
            yield
            return
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        parent_id, parent_op = parent if parent is not None else (None, None)
        if op is None:
            op = parent_op
        span_id = next(self._ids)
        stack.append((span_id, op))
        if publish_as is not None:
            self._published[publish_as] = (span_id, op)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if publish_as is not None:
                self._published.pop(publish_as, None)
            self.spans.append((span_id, parent_id, name, op, start, end))

    def wrap(self, fn, name: str, parent_of=None, publish_as=None):
        """``fn`` with a span named ``name`` around every call."""

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            parent = parent_of() if parent_of is not None else None
            with self.span(name, parent=parent, publish_as=publish_as):
                return fn(*args, **kwargs)

        return traced


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list] = defaultdict(list)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - _covered(children.get(span_id, []), start, end)
        for span_id, _, _, _, start, end in spans
    }


def layer_table(spans, total_s: float) -> tuple[list[tuple], float]:
    """Per-layer ``(name, calls, self_s)`` rows, largest first, and the
    ``unattributed`` residual: ``total_s`` minus every layer's self time.

    ``total_s`` is the client time the traced window spans (window
    wall time times the number of client threads).
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    for span_id, _, name, _, _, _ in spans:
        if name.startswith(OP_PREFIX):
            continue
        calls[name] += 1
        seconds[name] += selfs[span_id]
    rows = sorted(
        ((name, calls[name], seconds[name]) for name in calls),
        key=lambda row: -row[2],
    )
    return rows, total_s - sum(row[2] for row in rows)


def render_table(spans, total_s: float, ops: int) -> str:
    """The per-layer self-time table, with its ``unattributed`` row."""
    rows, unattributed = layer_table(spans, total_s)
    per_op = max(ops, 1)
    lines = [
        f"{'layer':40s} {'calls':>9s} {'self_s':>10s} "
        f"{'ms/op':>10s} {'share':>7s}"
    ]
    for name, n, sec in rows + [("unattributed", 0, unattributed)]:
        share = sec / total_s if total_s > 0 else 0.0
        lines.append(
            f"{name:40s} {n:9d} {sec:10.4f} "
            f"{sec / per_op * 1e3:10.4f} {share:7.1%}"
        )
    lines.append(
        f"{'total (client time in traced window)':40s} {ops:9d} "
        f"{total_s:10.4f} {total_s / per_op * 1e3:10.4f} {1:7.1%}"
    )
    return "\n".join(lines)


def write_spans(path, spans, total_s: float, ops: int, meta: dict) -> None:
    payload = {**meta, "total_s": total_s, "ops": ops, "spans": spans}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def read_spans(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["spans"] = [tuple(span) for span in payload["spans"]]
    return payload
