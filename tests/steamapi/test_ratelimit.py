"""Token-bucket rate limiter."""

import pytest

from repro.obs import FakeClock
from repro.steamapi.ratelimit import TokenBucket


class TestTokenBucket:
    def test_burst_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refills_over_time(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        bucket.try_acquire(2.0)
        assert not bucket.try_acquire()
        clock.advance(0.5)  # refills one token
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=5.0, clock=clock)
        clock.advance(100.0)
        assert bucket.available == pytest.approx(5.0)

    def test_wait_time(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        bucket.try_acquire()
        assert bucket.wait_time() == pytest.approx(0.5)
        clock.advance(0.25)
        assert bucket.wait_time() == pytest.approx(0.25)

    def test_wait_time_zero_when_available(self):
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=FakeClock())
        assert bucket.wait_time() == 0.0

    def test_sustained_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=5.0, burst=1.0, clock=clock)
        granted = 0
        for _ in range(1000):
            clock.advance(0.1)
            if bucket.try_acquire():
                granted += 1
        # 100 seconds at 5/s.
        assert granted == pytest.approx(500, abs=5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)
