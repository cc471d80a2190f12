"""Token-bucket rate limiting for API keys.

The real Steam Web API enforces a daily call budget per key; we model the
short-term behavior as a token bucket (sustained rate plus a small
burst).  The clock is injectable so that tests and the simulated crawler
can run on virtual time.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

__all__ = ["TokenBucket"]


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity."""

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock or time.monotonic
        self._tokens = self.burst
        self._updated = self._clock()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(now - self._updated, 0.0)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks.

        A small epsilon absorbs floating-point refill drift so sustained
        callers see exactly the configured rate.
        """
        with self._lock:
            self._refill()
            if self._tokens >= tokens - 1e-9:
                self._tokens = max(self._tokens - tokens, 0.0)
                return True
            return False

    def wait_time(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` would be available (0 if now)."""
        with self._lock:
            self._refill()
            deficit = tokens - self._tokens
            if deficit <= 0:
                return 0.0
            return deficit / self.rate

    @property
    def available(self) -> float:
        with self._lock:
            self._refill()
            return self._tokens
