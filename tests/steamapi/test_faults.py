"""Deterministic fault injection: the FaultPlan / FaultInjectingTransport."""

import json

import pytest

from repro.faults import FaultPlan, draw, pick
from repro.steamapi.errors import (
    ApiError,
    MalformedResponseError,
    RateLimitedError,
    RequestTimeoutError,
)
from repro.steamapi.faults import FaultInjectingTransport, FaultSpec


class Echo:
    """Inner transport that records and answers every request."""

    def __init__(self):
        self.calls = 0

    def request(self, path, params):
        self.calls += 1
        return {"path": path, "ok": True}


def _uniform(rate, seed):
    return FaultPlan(seed=seed, default=FaultSpec.uniform(rate))


def _drive(transport, n, path="/x"):
    """Run n requests, tallying outcomes by error class (None = clean)."""
    outcomes = []
    for _ in range(n):
        try:
            transport.request(path, {})
            outcomes.append(None)
        except ApiError as exc:
            outcomes.append(type(exc).__name__)
    return outcomes


class TestFaultSpec:
    def test_rejects_probability_overflow(self):
        with pytest.raises(ValueError):
            FaultSpec(rate_limit=0.6, server_error=0.6)

    def test_rejects_bad_burst(self):
        with pytest.raises(ValueError):
            FaultSpec(burst=0)

    def test_uniform_plan_splits_rate(self):
        plan = FaultPlan(seed=3, default=FaultSpec.uniform(0.2))
        assert plan.default.total_rate == pytest.approx(0.2)
        for kind in FaultSpec.KINDS:
            assert getattr(plan.default, kind) == pytest.approx(0.05)


class TestDeterminism:
    def test_same_seed_same_fault_sequence(self):
        plan = FaultPlan(seed=11, default=FaultSpec.uniform(0.3))
        a = _drive(FaultInjectingTransport(Echo(), plan), 500)
        b = _drive(FaultInjectingTransport(Echo(), plan), 500)
        assert a == b
        assert any(x is not None for x in a)

    def test_different_seed_different_sequence(self):
        a = _drive(
            FaultInjectingTransport(Echo(), _uniform(0.3, seed=1)),
            500,
        )
        b = _drive(
            FaultInjectingTransport(Echo(), _uniform(0.3, seed=2)),
            500,
        )
        assert a != b

    def test_counters_track_outcomes(self):
        faulty = FaultInjectingTransport(
            Echo(), FaultPlan(seed=5, default=FaultSpec.uniform(0.4))
        )
        outcomes = _drive(faulty, 1000)
        injected = sum(1 for x in outcomes if x is not None)
        assert faulty.total_injected == injected
        assert faulty.requests_seen == 1000
        assert sum(faulty.faults_by_endpoint.values()) == injected
        # ~40% fault rate: all four kinds should have fired.
        assert all(faulty.fault_counts[k] > 0 for k in FaultSpec.KINDS)


class TestFaultKinds:
    def _only(self, **kwargs):
        return FaultInjectingTransport(
            Echo(), FaultPlan(seed=0, default=FaultSpec(**kwargs))
        )

    def test_rate_limit_carries_retry_after_in_range(self):
        faulty = self._only(rate_limit=1.0, retry_after=(0.5, 1.5))
        for _ in range(20):
            with pytest.raises(RateLimitedError) as info:
                faulty.request("/x", {})
            assert 0.5 <= info.value.retry_after <= 1.5

    def test_server_error_is_generic_transient(self):
        faulty = self._only(server_error=1.0)
        with pytest.raises(ApiError) as info:
            faulty.request("/x", {})
        assert info.value.status == 500

    def test_timeout_kind(self):
        faulty = self._only(timeout=1.0)
        with pytest.raises(RequestTimeoutError):
            faulty.request("/x", {})

    def test_malformed_truncates_real_payload(self):
        faulty = self._only(malformed=1.0)
        with pytest.raises(MalformedResponseError) as info:
            faulty.request("/x", {})
        body = info.value.body
        assert body is not None
        full = json.dumps({"path": "/x", "ok": True}).encode()
        assert body == full[: len(body)]  # a true prefix of the payload
        assert len(body) < len(full)
        with pytest.raises(ValueError):
            json.loads(body)  # and it really is broken JSON
        assert faulty.inner.calls == 1  # the inner request did happen

    def test_clean_requests_pass_through(self):
        faulty = self._only()  # all probabilities zero
        assert _drive(faulty, 50) == [None] * 50
        assert faulty.total_injected == 0


class TestBursts:
    def test_burst_repeats_same_kind(self):
        plan = FaultPlan(
            seed=9, default=FaultSpec(server_error=0.1, burst=4)
        )
        outcomes = _drive(FaultInjectingTransport(Echo(), plan), 2000)
        # Every fault run must come in maximal stretches of >= 4 (two
        # triggers can abut, so longer runs are fine).
        runs = []
        current = 0
        for outcome in outcomes:
            if outcome is not None:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        # The trailing run may be cut off by the end of the drive, so
        # only completed runs (followed by a clean request) count.
        assert runs, "no faults fired"
        assert all(run >= 4 for run in runs)

    def test_burst_of_one_decides_each_request_alone(self):
        spec = FaultSpec(server_error=0.5, burst=1)
        faulty = FaultInjectingTransport(
            Echo(), FaultPlan(seed=9, default=spec)
        )
        outcomes = _drive(faulty, 200)
        # Request n's fate is draw(seed, n) alone: no state carries over.
        expected = [
            "ApiError" if pick(spec, draw(9, n)[0]) else None
            for n in range(200)
        ]
        assert outcomes == expected
        assert None in outcomes and "ApiError" in outcomes


class TestPerEndpointSpecs:
    def test_longest_prefix_wins(self):
        plan = FaultPlan(
            seed=0,
            default=FaultSpec(),
            overrides={
                "/ISteamUser": FaultSpec(rate_limit=1.0),
                "/ISteamUser/GetFriendList": FaultSpec(timeout=1.0),
            },
        )
        faulty = FaultInjectingTransport(Echo(), plan)
        with pytest.raises(RequestTimeoutError):
            faulty.request("/ISteamUser/GetFriendList/v1", {})
        with pytest.raises(RateLimitedError):
            faulty.request("/ISteamUser/GetPlayerSummaries/v2", {})
        # No spec matches the storefront: clean.
        assert faulty.request("/appdetails", {})["ok"]

    def test_faults_by_endpoint_counter(self):
        plan = FaultPlan(
            seed=0,
            overrides={"/a": FaultSpec(server_error=1.0)},
        )
        faulty = FaultInjectingTransport(Echo(), plan)
        for _ in range(3):
            with pytest.raises(ApiError):
                faulty.request("/a", {})
        faulty.request("/b", {})
        assert faulty.faults_by_endpoint == {"/a": 3}
