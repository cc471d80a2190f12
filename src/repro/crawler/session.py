"""Shared crawl-session plumbing: transport + pacing + retries + key."""

from __future__ import annotations

import datetime as dt
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro import constants
from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.retry import RetryPolicy
from repro.crawler.throttle import PolitePacer
from repro.obs import Obs
from repro.steamapi.errors import (
    ApiError,
    BadRequestError,
    NotFoundError,
    PrivateProfileError,
    RateLimitedError,
    UnauthorizedError,
)
from repro.steamapi.service import DEFAULT_API_KEY
from repro.steamapi.transport import Transport, endpoint_label

__all__ = ["CrawlSession", "open_crawl", "unix_to_day"]

#: Errors retrying will never fix (mirrors the retry policy's list).
_FATAL = (
    BadRequestError,
    NotFoundError,
    PrivateProfileError,
    UnauthorizedError,
)

_UNIX_LAUNCH = int(
    dt.datetime(
        constants.STEAM_LAUNCH.year,
        constants.STEAM_LAUNCH.month,
        constants.STEAM_LAUNCH.day,
        tzinfo=dt.timezone.utc,
    ).timestamp()
)

#: How often (in logical requests) the live-throughput gauge updates.
_THROUGHPUT_EVERY = 500


def unix_to_day(timestamp: int) -> int:
    """Convert a unix timestamp to days-since-Steam-launch."""
    return (int(timestamp) - _UNIX_LAUNCH) // 86400


@dataclass
class CrawlSession:
    """One crawler's view of the API: paced, retried, authenticated."""

    transport: Transport
    pacer: PolitePacer
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    api_key: str = DEFAULT_API_KEY
    #: Logical API calls (one per ``get``, however many retries inside).
    requests_made: int = 0
    #: Physical transport attempts, retries included — what an API-key
    #: budget actually gets charged for.
    attempts: int = 0
    #: Observability hook; ``None`` keeps the hot path untouched.
    obs: Obs | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # Propagate rate-limit pushback from the retry loop into the
        # pacer, so subsequent requests (and co-tenants of the pacer)
        # also slow down instead of immediately re-tripping the limit.
        if self.retry.on_retry is None:
            self.retry.on_retry = self._observe_retry
        if self.obs is not None:
            reg = self.obs.registry
            self._m_requests = reg.counter(
                "steamapi_requests",
                "Logical API requests by endpoint",
                ("endpoint",),
            )
            self._m_latency = reg.histogram(
                "steamapi_request_seconds",
                "API request latency by endpoint (retries included)",
                labelnames=("endpoint",),
            )
            # Pre-bound per-path metric handles (label validation and
            # endpoint_label run once per distinct path, not per call).
            self._endpoint_handles = {}
            self._m_attempts = reg.counter(
                "steamapi_attempts",
                "Physical transport attempts (retries included)",
            ).labels()
            self._m_retried = reg.counter(
                "crawler_retries",
                "Retried transient failures by error kind",
                ("kind",),
            )
            self._m_ratelimited = reg.counter(
                "steamapi_rate_limited",
                "Rate-limit rejections seen by the crawler",
            )
            self._m_backoff = reg.counter(
                "crawler_backoff_sleep_seconds",
                "Total seconds of retry backoff sleep requested",
            )
            self._m_throughput = reg.gauge(
                "crawler_requests_per_second",
                f"Live crawl throughput (updated every "
                f"{_THROUGHPUT_EVERY} requests)",
            )
            self._t0 = self.obs.clock()

    def _observe_retry(self, exc: ApiError, delay: float) -> None:
        if isinstance(exc, RateLimitedError):
            self.pacer.penalize(exc.retry_after)
        if self.obs is not None:
            self._m_retried.inc(kind=exc.__class__.__name__)
            self._m_backoff.inc(delay)
            if isinstance(exc, RateLimitedError):
                self._m_ratelimited.inc()
            # One point-in-time span per retried failure, nested under
            # whatever crawl phase is open: the merged trace shows not
            # just that phase 2 was slow but *where* the backoff went.
            with self.obs.span(
                f"retry:{exc.__class__.__name__}", delay=round(delay, 6)
            ):
                pass

    @property
    def retries(self) -> int:
        """Total retried failures seen by this session's policy."""
        return self.retry.retries

    def _bind_endpoint(self, path: str):
        label = endpoint_label(path)
        handles = (
            self._m_requests.labels(endpoint=label),
            self._m_latency.labels(endpoint=label),
        )
        self._endpoint_handles[path] = handles
        return handles

    def get(self, path: str, **params) -> dict:
        """One paced, retried API request."""
        self.pacer.pace()
        params.setdefault("key", self.api_key)
        self.requests_made += 1

        def attempt() -> dict:
            self.attempts += 1
            return self.transport.request(path, params)

        if self.obs is None:
            return self.retry.call(attempt)

        handles = self._endpoint_handles.get(path)
        if handles is None:
            handles = self._bind_endpoint(path)
        m_requests, m_latency = handles
        clock = self.obs.clock
        attempts_before = self.attempts
        start = clock()
        try:
            return self.retry.call(attempt)
        finally:
            m_latency.observe(clock() - start)
            m_requests.inc()
            self._m_attempts.inc(self.attempts - attempts_before)
            if self.requests_made % _THROUGHPUT_EVERY == 0:
                elapsed = clock() - self._t0
                if elapsed > 0:
                    self._m_throughput.set(self.requests_made / elapsed)

    def get_many(
        self, items: Iterable[tuple[str, dict]]
    ) -> tuple[list[dict], ApiError | None]:
        """Issue a window of requests back-to-back.

        Sequential-equivalent to calling :meth:`get` per item — same
        pacing slots, same retry schedule (and jitter RNG draws), same
        transport-call order, so a crawl through a seeded
        :class:`~repro.steamapi.faults.FaultInjectingTransport` sees a
        byte-identical fault sequence.  The speedup comes from hoisting
        the per-request session bookkeeping (attribute lookups, metric
        handle binding, retry-closure setup) out of the inner loop.

        Returns ``(results, error)``.  On the first error that escapes
        the retry policy (a fatal error, or :class:`RetriesExhausted`),
        the window stops *immediately* — exactly where a lockstep
        caller would have stopped — with ``results`` holding the
        payloads of the ``len(results)`` requests that succeeded and
        ``error`` the captured exception for item ``len(results)``.
        Items after the failed one are not issued (nor drawn, when
        ``items`` is a generator).
        """
        results: list[dict] = []
        pace = self.pacer.pace
        request = self.transport.request
        key = self.api_key
        obs = self.obs
        if obs is None:
            for path, params in items:
                pace()
                if "key" not in params:
                    params["key"] = key
                self.requests_made += 1
                self.attempts += 1
                try:
                    value = request(path, params)
                except _FATAL as exc:
                    return results, exc
                except ApiError as exc:
                    try:
                        value = self.retry.resume(
                            lambda: self._attempt(path, params), exc
                        )
                    except ApiError as final_exc:
                        return results, final_exc
                results.append(value)
            return results, None
        # Instrumented path: identical metric *totals* as per-item
        # get() calls.  The latency histogram is observed per request
        # (its count must equal requests_made), but the counters only
        # promise final totals, so the request counter batches over
        # runs of same-endpoint items and the attempts counter flushes
        # once per window — one locked inc instead of two per request.
        clock = obs.clock
        handles = self._endpoint_handles
        attempts_start = self.attempts
        run_requests = None  # bound counter for the current path run
        run_count = 0
        error: ApiError | None = None
        for path, params in items:
            pace()
            if "key" not in params:
                params["key"] = key
            self.requests_made += 1
            self.attempts += 1
            bound = handles.get(path)
            if bound is None:
                bound = self._bind_endpoint(path)
            m_requests, m_latency = bound
            if m_requests is not run_requests:
                if run_count:
                    run_requests.inc(run_count)
                run_requests = m_requests
                run_count = 0
            start = clock()
            try:
                value = request(path, params)
            except _FATAL as exc:
                error = exc
            except ApiError as exc:
                try:
                    value = self.retry.resume(
                        lambda: self._attempt(path, params), exc
                    )
                except ApiError as final_exc:
                    error = final_exc
            m_latency.observe(clock() - start)
            run_count += 1
            if self.requests_made % _THROUGHPUT_EVERY == 0:
                elapsed = clock() - self._t0
                if elapsed > 0:
                    self._m_throughput.set(self.requests_made / elapsed)
            if error is not None:
                break
            results.append(value)
        if run_count:
            run_requests.inc(run_count)
        self._m_attempts.inc(self.attempts - attempts_start)
        return results, error

    def _attempt(self, path: str, params: dict) -> dict:
        """One counted physical attempt (retry re-entry for get_many)."""
        self.attempts += 1
        return self.transport.request(path, params)


def open_crawl(
    transport: Transport,
    advertised_rate: float,
    politeness: float,
    clock,
    sleeper,
    retry: RetryPolicy | None,
    skip_failed: bool,
    obs: Obs | None,
    checkpoint: CrawlCheckpoint | None,
) -> tuple[CrawlSession, CrawlCheckpoint | None]:
    """The session and checkpoint a crawl entry point runs on.

    Pacing and the default retry policy sleep through ``sleeper``
    (no-op when ``None``); ``skip_failed`` gets an in-memory
    checkpoint when the caller brings none, so skips are tracked; a
    checkpoint saves under ``obs`` unless it already has a scope.
    """
    sleeper = sleeper or (lambda s: None)
    pacer = PolitePacer(
        advertised_rate, politeness, clock=clock, sleeper=sleeper
    )
    if retry is None:
        retry = RetryPolicy(sleeper=sleeper)
    session = CrawlSession(
        transport=transport, pacer=pacer, retry=retry, obs=obs
    )
    if checkpoint is None and skip_failed:
        checkpoint = CrawlCheckpoint()
    if checkpoint is not None and obs is not None and checkpoint.obs is None:
        checkpoint.obs = obs
    return session, checkpoint
