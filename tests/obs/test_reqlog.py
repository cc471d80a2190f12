"""Unit tests for the canonical request log (:mod:`repro.obs.reqlog`)."""

from __future__ import annotations

import json

import pytest

from repro.fsutil import LineSink
from repro.obs.clock import FakeClock
from repro.obs.reqlog import (
    LAYERS,
    RecordBuilder,
    RequestLog,
    encode_record,
    read_jsonl,
)


def _commit(log: RequestLog, builder: RecordBuilder, status: int) -> dict:
    """Commit ``builder`` with ``status``; returns the record."""
    builder.status = status
    log.commit(builder)
    return builder.as_record()


def test_record_has_all_layers_and_canonical_fields():
    log = RequestLog(clock=FakeClock(tick=0.001))
    builder = log.start("/users/1/summary")
    builder.route = "/users/<id>/summary"
    record = _commit(log, builder, 200)
    assert set(record["layers"]) == set(LAYERS)
    assert record["status"] == 200
    assert record["seq"] == 0
    assert record["trace_id"] == "-"
    assert record["path"] == "/users/1/summary"
    assert log.records() == [record]


def test_ring_is_bounded_and_counts_drops():
    log = RequestLog(capacity=3, clock=FakeClock(tick=0.001))
    for i in range(10):
        _commit(log, log.start(f"/p/{i}"), 200)
    records = log.records()
    assert len(records) == 3
    assert [r["path"] for r in records] == ["/p/7", "/p/8", "/p/9"]
    assert [r["seq"] for r in records] == [7, 8, 9]
    stats = log.stats()
    assert stats == {"capacity": 3, "size": 3, "total": 10, "dropped": 7}


def test_tail_filters_by_route_status_and_latency():
    clock = FakeClock()
    log = RequestLog(clock=clock)
    for status, route, seconds in (
        (200, "/a", 0.01),
        (429, "/a", 0.0),
        (200, "/b", 0.5),
        (200, "/a", 0.5),
    ):
        builder = log.start(route)
        builder.route = route
        clock.advance(seconds)
        _commit(log, builder, status)
    assert len(log.tail(10)) == 4
    assert [r["status"] for r in log.tail(10, route="/a")] == [200, 429, 200]
    assert [r["route"] for r in log.tail(10, status=429)] == ["/a"]
    slow = log.tail(10, min_seconds=0.4)
    assert [(r["route"], r["total_s"]) for r in slow] == [
        ("/b", 0.5),
        ("/a", 0.5),
    ]
    assert len(log.tail(1, route="/a")) == 1


def test_timed_adds_layer_time_to_the_builder():
    clock = FakeClock()
    log = RequestLog(clock=clock)
    builder = log.start("/x")

    def store():
        clock.advance(0.1)

    def handler():
        clock.advance(0.25)
        builder.timed("store_s", store)

    builder.timed("handler_s", handler)
    record = _commit(log, builder, 200)
    assert record["layers"]["handler"] == pytest.approx(0.35)
    assert record["layers"]["store"] == pytest.approx(0.1)
    assert record["layers"]["cache"] == 0.0


def test_timed_keeps_the_time_of_a_raising_layer():
    clock = FakeClock()
    builder = RequestLog(clock=clock).start("/x")

    def crash():
        clock.advance(0.5)
        raise RuntimeError("handler bug")

    with pytest.raises(RuntimeError):
        builder.timed("handler_s", crash)
    assert builder.handler_s == pytest.approx(0.5)


def test_annotate_rejects_unknown_fields():
    builder = RequestLog(clock=FakeClock()).start("/x")
    with pytest.raises(AttributeError):
        builder.nonsense = True
    with pytest.raises(AttributeError):
        builder.layers = {}  # layer times live in fixed slots


def test_wire_facts_land_in_the_record():
    clock = FakeClock()
    log = RequestLog(clock=clock)
    builder = log.start("/x")
    builder.bytes_out = 42
    builder.serialize_s = 0.01
    builder.write_s = 0.02
    builder.trace_id = "cafe01"
    builder.span_id = 7
    record = _commit(log, builder, 499)
    assert record["status"] == 499
    assert record["bytes_out"] == 42
    assert record["trace_id"] == "cafe01"
    assert record["span_id"] == 7
    assert record["layers"]["serialize"] == pytest.approx(0.01)
    assert record["layers"]["write"] == pytest.approx(0.02)
    assert log.records() == [record]


def test_same_sequence_encodes_byte_identically():
    def run() -> bytes:
        clock = FakeClock(tick=0.0005)
        log = RequestLog(clock=clock)
        lines = []
        for i in range(5):
            builder = log.start(f"/p/{i % 2}")
            builder.route = "/p/<id>"
            builder.timed("handler_s", clock.advance, 0.01 * i)
            builder.cache = "hit" if i % 2 else "miss"
            record = _commit(log, builder, 200 if i else 429)
            lines.append(encode_record(record))
        return b"\n".join(lines)

    assert run() == run()


def test_jsonl_sink_appends_every_record(tmp_path):
    path = tmp_path / "req.jsonl"
    log = RequestLog(
        capacity=2, clock=FakeClock(tick=0.001), jsonl_path=path
    )
    for i in range(5):
        _commit(log, log.start(f"/p/{i}"), 200)
    log.close()
    # The ring dropped 3; the sink saw all 5.
    records = list(read_jsonl(path))
    assert [r["seq"] for r in records] == [0, 1, 2, 3, 4]


def test_read_jsonl_skips_torn_tail(tmp_path):
    path = tmp_path / "req.jsonl"
    with LineSink(path) as sink:
        sink.write_line(json.dumps({"seq": 0}))
        sink.write_line(json.dumps({"seq": 1}))
    with open(path, "ab") as handle:
        handle.write(b'{"seq": 2, "tru')  # crash mid-append
    assert [r["seq"] for r in read_jsonl(path)] == [0, 1]


def test_line_sink_reopens_after_close(tmp_path):
    path = tmp_path / "lines.jsonl"
    sink = LineSink(path)
    sink.write_line(b"a")
    sink.close()
    sink.write_line(b"b")
    sink.close()
    assert path.read_bytes() == b"a\nb\n"
