"""Pipelined transport (``CrawlSession.get_many``) equivalence.

The contract: a ``get_many`` window is *sequential-equivalent* to
calling ``get`` once per item — same transport-call order (so a seeded
fault injector fires the same faults), same retry schedule, same
bookkeeping totals — and stops exactly where the lockstep caller would
have stopped on the first escaping error.
"""

import numpy as np
import pytest

from repro import constants
from repro.crawler.retry import RetriesExhausted, RetryPolicy
from repro.crawler.session import CrawlSession
from repro.crawler.throttle import PolitePacer
from repro.faults import FaultPlan
from repro.obs import Obs
from repro.steamapi.errors import PrivateProfileError
from repro.steamapi.faults import FaultInjectingTransport, FaultSpec
from repro.steamapi.service import SteamApiService
from repro.steamapi.transport import InProcessTransport


@pytest.fixture(scope="module")
def service(small_world):
    return SteamApiService.from_world(small_world)


def _session(transport, obs=None, **retry_kwargs):
    return CrawlSession(
        transport=transport,
        pacer=PolitePacer(1e9, sleeper=lambda s: None),
        retry=RetryPolicy(sleeper=lambda s: None, **retry_kwargs),
        obs=obs,
    )


def _detail_items(service, n=40):
    """A mixed-endpoint window over the first ``n`` public accounts."""
    public = np.flatnonzero(~service.private_mask)[:n]
    items = []
    for user in public:
        sid = int(service._offsets[user]) + constants.STEAMID_BASE
        items.append(("/ISteamUser/GetFriendList/v1", {"steamid": sid}))
        items.append(("/IPlayerService/GetOwnedGames/v1", {"steamid": sid}))
        items.append(
            ("/ISteamUser/GetUserGroupList/v1", {"steamid": sid})
        )
    return items


#: Aggressive chaos: every fault kind, 2-long bursts.
PLAN = FaultPlan(
    seed=4242,
    default=FaultSpec(
        rate_limit=0.05,
        server_error=0.05,
        timeout=0.03,
        malformed=0.02,
        retry_after=(0.001, 0.01),
        burst=2,
    ),
)


class TestSequentialEquivalence:
    def test_clean_payloads_match_lockstep(self, service):
        items = _detail_items(service)
        lockstep = _session(InProcessTransport(service))
        expected = [
            lockstep.get(path, **params) for path, params in items
        ]
        pipelined = _session(InProcessTransport(service))
        results, error = pipelined.get_many(
            [(path, dict(params)) for path, params in items]
        )
        assert error is None
        assert results == expected
        assert pipelined.requests_made == lockstep.requests_made
        assert pipelined.attempts == lockstep.attempts

    def test_chaos_payloads_and_fault_sequence_match_lockstep(
        self, service
    ):
        """Same payloads *and* the same injected-fault tape.

        Two identically-seeded injectors replay the same fault
        decisions per transport call — so matching fault counts prove
        the pipelined window issues physical attempts in exactly the
        lockstep order.
        """
        items = _detail_items(service)
        lock_t = FaultInjectingTransport(InProcessTransport(service), PLAN)
        lockstep = _session(lock_t, max_attempts=10, jitter=True)
        expected = [
            lockstep.get(path, **params) for path, params in items
        ]
        pipe_t = FaultInjectingTransport(InProcessTransport(service), PLAN)
        pipelined = _session(pipe_t, max_attempts=10, jitter=True)
        results, error = pipelined.get_many(
            [(path, dict(params)) for path, params in items]
        )
        assert error is None
        assert results == expected
        assert lock_t.fault_counts  # chaos actually happened
        assert pipe_t.fault_counts == lock_t.fault_counts
        assert pipelined.attempts == lockstep.attempts
        assert pipelined.retries == lockstep.retries

    def test_metric_totals_match_lockstep(self, service):
        """Batched counter updates still land on identical totals."""
        items = _detail_items(service)
        obs_lock, obs_pipe = Obs(), Obs()
        lockstep = _session(InProcessTransport(service), obs=obs_lock)
        for path, params in items:
            lockstep.get(path, **params)
        pipelined = _session(InProcessTransport(service), obs=obs_pipe)
        _, error = pipelined.get_many(
            [(path, dict(params)) for path, params in items]
        )
        assert error is None
        for obs in (obs_lock, obs_pipe):
            requests = obs.registry.get("steamapi_requests")
            total = sum(
                s["value"] for s in requests.snapshot()["series"]
            )
            assert total == len(items)
            assert obs.registry.get("steamapi_attempts").value() == len(
                items
            )
            latency = obs.registry.get("steamapi_request_seconds")
            assert (
                sum(s["count"] for s in latency.snapshot()["series"])
                == len(items)
            )


class TestWindowStopsAtFirstError:
    def test_fatal_error_truncates_window(self, small_world):
        service = SteamApiService.from_world(
            small_world, private_rate=0.1, private_seed=5
        )
        private = np.flatnonzero(service.private_mask)
        assert len(private), "private_rate produced no private profiles"
        bad_sid = (
            int(service._offsets[private[0]]) + constants.STEAMID_BASE
        )
        ok_sid = (
            int(
                service._offsets[np.flatnonzero(~service.private_mask)[0]]
            )
            + constants.STEAMID_BASE
        )
        session = _session(InProcessTransport(service))
        results, error = session.get_many(
            [
                ("/IPlayerService/GetOwnedGames/v1", {"steamid": ok_sid}),
                ("/ISteamUser/GetFriendList/v1", {"steamid": bad_sid}),
                # Never issued: the window stops at the failure.
                ("/IPlayerService/GetOwnedGames/v1", {"steamid": ok_sid}),
            ]
        )
        assert isinstance(error, PrivateProfileError)
        assert len(results) == 1
        assert session.requests_made == 2
        assert session.attempts == 2  # fatal errors are not retried

    def test_retries_exhausted_truncates_window(self, service):
        always_down = FaultInjectingTransport(
            InProcessTransport(service),
            FaultPlan(seed=7, default=FaultSpec(server_error=1.0)),
        )
        session = _session(always_down, max_attempts=3)
        ok_sid = (
            int(
                service._offsets[np.flatnonzero(~service.private_mask)[0]]
            )
            + constants.STEAMID_BASE
        )
        results, error = session.get_many(
            [
                ("/IPlayerService/GetOwnedGames/v1", {"steamid": ok_sid}),
                ("/IPlayerService/GetOwnedGames/v1", {"steamid": ok_sid}),
            ]
        )
        assert isinstance(error, RetriesExhausted)
        assert results == []
        assert session.requests_made == 1  # second item never issued
        assert session.attempts == 3
