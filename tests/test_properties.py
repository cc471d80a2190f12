"""Cross-cutting property-based tests (hypothesis).

Each property here guards an invariant several subsystems rely on:
token-bucket conservation, pacer rate ceilings, anchored-curve
monotonicity under arbitrary anchor sets, and SteamID arithmetic.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crawler.throttle import PolitePacer
from repro.obs import FakeClock
from repro.simworld.marginals import AnchoredCurve, TailSpec
from repro.steamapi.ratelimit import TokenBucket


class TestTokenBucketProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0),  # advance
                st.booleans(),  # attempt acquire
            ),
            max_size=60,
        )
    )
    @settings(max_examples=80)
    def test_never_grants_beyond_refill_plus_burst(self, schedule):
        clock = FakeClock()
        rate, burst = 2.0, 3.0
        bucket = TokenBucket(rate=rate, burst=burst, clock=clock)
        granted = 0
        for advance, attempt in schedule:
            clock.advance(advance)
            if attempt and bucket.try_acquire():
                granted += 1
        ceiling = burst + clock() * rate + 1e-6
        assert granted <= ceiling

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=40)
    def test_wait_time_is_sufficient(self, rate):
        clock = FakeClock()
        bucket = TokenBucket(rate=rate, burst=1.0, clock=clock)
        assert bucket.try_acquire()
        wait = bucket.wait_time()
        clock.advance(wait + 1e-9)
        assert bucket.try_acquire()


class TestPacerProperties:
    @given(
        st.floats(min_value=0.5, max_value=500.0),
        st.integers(min_value=2, max_value=200),
    )
    @settings(max_examples=50)
    def test_rate_ceiling(self, rate, n_requests):
        class Fake:
            def __init__(self):
                self.now = 0.0

            def clock(self):
                return self.now

            def sleep(self, seconds):
                self.now += seconds

        fake = Fake()
        pacer = PolitePacer(
            rate, politeness=0.85, clock=fake.clock, sleeper=fake.sleep
        )
        for _ in range(n_requests):
            pacer.pace()
        # n requests can never complete faster than (n-1)/effective_rate.
        minimum = (n_requests - 1) / (rate * 0.85)
        assert fake.now >= minimum - 1e-6


anchor_values = st.lists(
    st.floats(min_value=0.5, max_value=1e6),
    min_size=2,
    max_size=6,
    unique=True,
)


class TestAnchoredCurveProperties:
    @given(
        anchor_values,
        st.floats(min_value=1.2, max_value=6.0),
        st.lists(
            st.floats(min_value=0.0, max_value=0.999),
            min_size=2,
            max_size=20,
        ),
    )
    @settings(max_examples=80)
    def test_monotone_for_arbitrary_anchors(self, values, alpha, us):
        xs = sorted(values)
        qs = np.linspace(0.3, 0.95, len(xs))
        curve = AnchoredCurve(
            anchors=tuple(zip(qs, xs)),
            x_min=xs[0] / 2,
            tail=TailSpec("pareto", alpha),
        )
        us = sorted(us)
        outputs = curve.ppf(np.array(us))
        assert np.all(np.diff(outputs) >= -1e-9)

    @given(anchor_values, st.floats(min_value=1.2, max_value=6.0))
    @settings(max_examples=60)
    def test_anchors_always_exact(self, values, alpha):
        xs = sorted(values)
        qs = np.linspace(0.3, 0.95, len(xs))
        curve = AnchoredCurve(
            anchors=tuple(zip(qs, xs)),
            x_min=xs[0] / 2,
            tail=TailSpec("pareto", alpha),
        )
        for q, x in zip(qs, xs):
            assert curve.ppf(q) == pytest.approx(x, rel=1e-9)
