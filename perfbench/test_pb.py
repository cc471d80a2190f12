"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pb.inputs import ROUTES, Keys, request_stream  # noqa: E402
from pb.measure import (  # noqa: E402
    min_samples,
    read_steal_seconds,
    segment_rates,
    tail_latency,
)
from pb.spans import Tracer, layer_table, self_times  # noqa: E402

STEAMIDS = np.arange(76561197960265728, 76561197960265728 + 500)
APPIDS = np.arange(10, 310)
#: User 0 weighs as much as the other 499 together.
USER_WEIGHTS = np.r_[499.0, np.ones(499)]
KEYS = Keys(STEAMIDS, USER_WEIGHTS, APPIDS, np.ones(len(APPIDS)))


class TestPercentile:
    def test_count_guard_wants_ten_samples_beyond(self):
        assert min_samples(90) == 100 and min_samples(99) == 1000
        values = [float(i) for i in range(999)]
        assert not tail_latency(values, 99)[1].startswith("p99")
        assert not tail_latency(values[:99])[1].startswith("p90")
        assert tail_latency(values + [999.0], 99) == (
            pytest.approx(np.percentile(values + [999.0], 99)), "p99")


class TestTailLatency:
    def test_percentile_of_one_segment(self):
        values = [float(i) for i in range(150)]
        assert tail_latency(values) == (pytest.approx(np.percentile(values, 90)), "p90")

    def test_median_of_segment_tails_ignores_a_bad_segment(self):
        values = [1.0] * 1000
        values[:20] = [100.0] * 20  # a steal burst inside segment one
        tail, how = tail_latency(values)
        assert tail == 1.0 and "10 segments" in how
        assert tail_latency(values, 99)[0] == pytest.approx(
            np.percentile(values, 99))

    def test_too_few_ops_give_the_highest_percentile_with_ten_beyond(self):
        values = [float(i) for i in range(1, 41)]  # 40 ops: no p90
        tail, how = tail_latency(values)
        assert tail == pytest.approx(np.percentile(values, 75))
        assert how.startswith("p75")
        assert sum(v > tail for v in values) == 10

    def test_under_twenty_ops_it_is_the_median(self):
        tail, how = tail_latency([3.0, 1.0, 2.0])
        assert tail == 2.0 and how.startswith("p50")


class TestSegmentRates:
    def test_rates_and_cpu_per_op_per_segment(self):
        # (active wall, active cpu, latency) at each op end.
        log = [(1.0, 0.5, 1.0), (2.0, 1.0, 1.0), (2.5, 1.5, 0.5), (3.0, 2.0, 0.5)]
        rates, cpu = segment_rates(log, 2)
        assert rates == [pytest.approx(1.0), pytest.approx(2.0)]
        assert cpu == [pytest.approx(0.5), pytest.approx(0.5)]


class TestStealReader:
    def test_reads_the_eighth_cpu_column_in_seconds(self, monkeypatch):
        monkeypatch.setattr("os.sysconf", lambda name: 100)
        text = "cpu  67881 0 9731 331843 343 0 1927 14576 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
        assert read_steal_seconds(text) == pytest.approx(145.76)

    def test_kernel_without_steal_column(self):
        assert read_steal_seconds("cpu  1 2 3 4 5 6 7\n") is None

    def test_live_host_reads_a_number_or_none(self):
        value = read_steal_seconds()
        assert value is None or value >= 0


class TestSelfTime:
    def test_children_are_subtracted_once_even_when_overlapping(self):
        spans = [
            (1, None, "crawler", None, 0.0, 10.0),
            (2, 1, "client", 0, 1.0, 4.0),
            (3, 2, "dispatch", 0, 2.0, 3.0),
            (4, 1, "client", 1, 3.0, 6.0),  # overlaps span 2 by 1 s
            (5, None, "op:step", 2, 10.0, 12.0),
        ]
        selfs = self_times(spans)
        assert selfs[1] == pytest.approx(10.0 - 5.0)  # union [1, 6]
        assert selfs[2] == pytest.approx(2.0)
        assert selfs[3] == pytest.approx(1.0)
        assert selfs[5] == pytest.approx(2.0)

    def test_layers_plus_unattributed_equal_total(self):
        spans = [
            (1, None, "crawler", None, 0.0, 10.0),
            (2, 1, "client", 0, 1.0, 4.0),
            (3, 2, "dispatch", 0, 2.0, 3.0),
            (4, None, "op:step", 1, 10.0, 12.0),
        ]
        rows, unattributed = layer_table(spans, total_s=13.0)
        assert [name for name, _, _ in rows] == ["crawler", "client", "dispatch"]
        # The op span's own 2 s and the 1 s outside every span.
        assert unattributed == pytest.approx(3.0)
        assert sum(sec for _, _, sec in rows) + unattributed == pytest.approx(13.0)

    def test_child_is_clipped_to_its_parent(self):
        spans = [(1, None, "a", None, 0.0, 1.0), (2, 1, "b", None, 0.5, 2.0)]
        assert self_times(spans)[1] == pytest.approx(0.5)

    def test_tracer_links_cross_thread_children_through_a_published_key(self):
        tracer = Tracer()
        tracer.on = True
        server = tracer.wrap(lambda: None, "dispatch",
                             parent_of=lambda: tracer.published("conn"))
        with tracer.span("request", op=7, publish_as="conn"):
            server()
        (child, parent) = tracer.spans
        assert child[2] == "dispatch" and child[1] == parent[0]
        assert child[3] == parent[3] == 7

    def test_tracer_off_records_nothing(self):
        tracer = Tracer()
        with tracer.span("x"):
            tracer.wrap(lambda: None, "y")()
        assert tracer.spans == []


class TestRequestStream:
    def test_same_seed_same_sequence(self):
        a = list(islice(request_stream(5, 0, KEYS, chunk=300), 1000))
        b = list(islice(request_stream(5, 0, KEYS, chunk=300), 1000))
        assert a == b

    def test_seed_and_stream_change_the_sequence(self):
        base = list(islice(request_stream(5, 0, KEYS), 200))
        assert base != list(islice(request_stream(6, 0, KEYS), 200))
        assert base != list(islice(request_stream(5, 1, KEYS), 200))

    def test_bench_serving_route_mix(self):
        reqs = list(islice(request_stream(1, 0, KEYS), 12000))
        kinds = Counter(
            path.rsplit("/", 1)[-1] if path.startswith(("/users", "/apps"))
            else path
            for path, _ in reqs
        )
        sixth = len(reqs) / len(ROUTES)
        for kind in ("summary", "neighborhood", "stats",
                     "/distributions/friends/percentile",
                     "/distributions/owned_games/rank"):
            assert kinds.pop(kind) == pytest.approx(sixth, rel=0.1)
        for kind in ("/tailfit/owned_games", "/homophily/market_value"):
            assert kinds.pop(kind) == pytest.approx(sixth / 2, rel=0.15)
        assert not kinds

    def test_keys_are_drawn_by_weight(self):
        reqs = list(islice(request_stream(1, 0, KEYS), 12000))
        users = [p for p, _ in reqs if p.endswith("/summary")]
        hot = users.count(f"/users/{STEAMIDS[0]}/summary")
        assert hot / len(users) == pytest.approx(0.5, abs=0.05)

    def test_params_are_strings_as_the_http_server_passes_them(self):
        for _, params in islice(request_stream(2, 0, KEYS), 500):
            assert all(isinstance(v, str) for v in params.values())
