"""Seeded chaos on the analytics read path.

The acceptance bar (DESIGN.md §14): under injected stalls, aborts,
crashes, and a request storm past capacity, the server never emits a
resource-exhaustion 5xx — excess is shed with 429 + ``Retry-After``,
injected crashes are contained as opaque 500s, aborts surface to
clients as incomplete reads — and every *accepted* (HTTP 200) response
is byte-identical to an unloaded run.  Fault sequences are pure
functions of the plan seed, so all of this is deterministic.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

import random

from repro.faults import FaultPlan
from repro.obs import Obs
from repro.serving import (
    AdmissionConfig,
    AnalyticsService,
    ChaosAnalyticsService,
    ChaosDispatch,
    ServingFaultSpec,
    serve_analytics,
)
from repro.serving.chaos import InjectedCrash, run_storm
from repro.steamapi.deadline import DEADLINE_HEADER
from repro.steamapi.faults import AbortedResponse


def _echo(path, params):
    return {"path": path, "params": params}


class TestChaosDispatch:
    def test_fault_sequence_is_seeded(self):
        plan = FaultPlan(
            seed=11,
            default=ServingFaultSpec(stall=0.2, abort=0.2, crash=0.2),
        )

        def drive(chaos):
            outcomes = []
            for i in range(200):
                try:
                    chaos(f"/req/{i}", {})
                    outcomes.append("ok")
                except InjectedCrash:
                    outcomes.append("crash")
                except AbortedResponse as exc:
                    outcomes.append(f"abort:{exc.cut}")
            return outcomes

        first = drive(ChaosDispatch(_echo, plan, sleep=lambda s: None))
        second = drive(ChaosDispatch(_echo, plan, sleep=lambda s: None))
        assert first == second
        assert "crash" in first
        assert any(outcome.startswith("abort") for outcome in first)

    def test_different_seeds_differ(self):
        def drive(seed):
            plan = FaultPlan(
                seed=seed, default=ServingFaultSpec(crash=0.5)
            )
            chaos = ChaosDispatch(_echo, plan, sleep=lambda s: None)
            outcomes = []
            for i in range(100):
                try:
                    chaos(f"/req/{i}", {})
                    outcomes.append(True)
                except InjectedCrash:
                    outcomes.append(False)
            return outcomes

        assert drive(1) != drive(2)

    def test_stall_spends_time_but_not_correctness(self):
        slept = []
        plan = FaultPlan(
            seed=0,
            default=ServingFaultSpec(stall=1.0, stall_range=(0.01, 0.02)),
        )
        chaos = ChaosDispatch(_echo, plan, sleep=slept.append)
        payload = chaos("/req", {"a": "1"})
        assert payload == {"path": "/req", "params": {"a": "1"}}
        assert len(slept) == 1
        assert 0.01 <= slept[0] <= 0.02

    def test_abort_carries_the_real_body_prefix(self):
        plan = FaultPlan(seed=3, default=ServingFaultSpec(abort=1.0))
        chaos = ChaosDispatch(_echo, plan)
        with pytest.raises(AbortedResponse) as excinfo:
            chaos("/req", {})
        exc = excinfo.value
        assert exc.body == json.dumps(_echo("/req", {})).encode("utf-8")
        assert 1 <= exc.cut < len(exc.body)

    def test_probes_are_exempt(self):
        plan = FaultPlan(seed=0, default=ServingFaultSpec(crash=1.0))
        chaos = ChaosDispatch(_echo, plan)
        for path in ("/healthz", "/readyz", "/metrics"):
            assert chaos(path, {})["path"] == path
        assert chaos.fault_counts["crash"] == 0
        with pytest.raises(InjectedCrash):
            chaos("/data", {})

    def test_burst_turns_one_fault_into_an_outage(self):
        plan = FaultPlan(
            seed=5, default=ServingFaultSpec(crash=0.05, burst=4)
        )
        chaos = ChaosDispatch(_echo, plan)
        crashes = []
        for i in range(300):
            try:
                chaos(f"/req/{i}", {})
                crashes.append(False)
            except InjectedCrash:
                crashes.append(True)
        # Each triggered fault is followed by 3 more: runs of exactly 4.
        runs, current = [], 0
        for crashed in crashes + [False]:
            if crashed:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert runs
        assert all(run % 4 == 0 for run in runs)

    def test_injected_faults_are_counted(self):
        obs = Obs()
        plan = FaultPlan(seed=0, default=ServingFaultSpec(crash=1.0))
        chaos = ChaosDispatch(_echo, plan, obs=obs)
        for i in range(3):
            with pytest.raises(InjectedCrash):
                chaos(f"/req/{i}", {})
        counter = obs.counter("serving_injected_faults", labelnames=("kind",))
        assert counter.value(kind="crash") == 3
        assert chaos.total_injected == 3


class TestChaosOverHttp:
    def test_abort_surfaces_as_incomplete_read(self, serving_store):
        plan = FaultPlan(seed=2, default=ServingFaultSpec(abort=1.0))
        obs = Obs()
        service = ChaosAnalyticsService(serving_store, plan, obs=obs)
        with serve_analytics(service, obs=obs) as server:
            host, port = server.server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request("GET", "/tailfit/friends")
                response = conn.getresponse()
                assert response.status == 200
                with pytest.raises(http.client.IncompleteRead):
                    response.read()
            finally:
                conn.close()
            assert obs.counter("http_aborted_bodies").value() == 1
            # Telemetry must not book the abort as a clean 200: it is
            # accounted under the 499 sentinel.  The handler accounts
            # after writing the partial body, so poll briefly.
            requests = obs.counter(
                "http_requests", labelnames=("path", "status")
            )
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if requests.value(path="/tailfit/<attr>", status=499) == 1:
                    break
                time.sleep(0.02)
            assert requests.value(path="/tailfit/<attr>", status=499) == 1
            assert requests.value(path="/tailfit/<attr>", status=200) == 0

    def test_crash_is_contained_as_opaque_500(self, serving_store):
        plan = FaultPlan(seed=2, default=ServingFaultSpec(crash=1.0))
        obs = Obs()
        service = ChaosAnalyticsService(serving_store, plan, obs=obs)
        with serve_analytics(service, obs=obs) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    server.base_url + "/tailfit/friends", timeout=10
                )
            assert excinfo.value.code == 500
            assert json.loads(excinfo.value.read()) == {
                "error": "InternalError"
            }
            # The crash released its admission slot and the breaker
            # only counts deadline blowouts: probes and later data
            # requests keep working.
            with urllib.request.urlopen(
                server.base_url + "/healthz", timeout=10
            ) as response:
                assert response.status == 200
            assert service.admission.inflight == 0

    def test_stalls_blow_deadlines_into_504(self, serving_store):
        """A stalled handler with an exhausted budget dies with the
        typed 504 at the next layer boundary — and consecutive
        blowouts trip the route's breaker into fast 429s."""
        plan = FaultPlan(
            seed=4,
            default=ServingFaultSpec(stall=1.0, stall_range=(0.05, 0.06)),
        )
        service = ChaosAnalyticsService(
            serving_store,
            plan,
            admission=AdmissionConfig(
                max_inflight=8,
                breaker_threshold=3,
                breaker_cooldown=30.0,
            ),
        )
        with serve_analytics(service) as server:
            statuses = []
            for _ in range(6):
                request = urllib.request.Request(
                    server.base_url + "/tailfit/friends",
                    headers={DEADLINE_HEADER: "0.01"},
                )
                try:
                    urllib.request.urlopen(request, timeout=10).read()
                    statuses.append(200)
                except urllib.error.HTTPError as exc:
                    statuses.append(exc.code)
                    exc.read()
            assert statuses[:3] == [504, 504, 504]
            # Breaker tripped: subsequent requests shed without the
            # stall (429 + Retry-After covering the cooldown).
            assert statuses[3:] == [429, 429, 429]
            assert service.admission.breaker_states() == {
                "/tailfit/<attr>": "open"
            }


class TestStormAcceptance:
    """The headline guarantee, end to end over real sockets."""

    @pytest.fixture()
    def reference_bodies(self, serving_store, storm_paths):
        """Unloaded run: the byte-exact 200 body for every storm path."""
        service = AnalyticsService(serving_store)
        with serve_analytics(service) as server:
            host, port = server.server.server_address[:2]
            bodies = {}
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                for path in storm_paths:
                    conn.request("GET", path)
                    response = conn.getresponse()
                    assert response.status == 200
                    bodies[path] = response.read()
            finally:
                conn.close()
        return bodies

    def test_storm_sheds_cleanly_and_accepted_bytes_match(
        self, serving_store, reference_bodies, storm_paths
    ):
        obs = Obs()
        # Stall every admitted request a few ms so the 8-client storm
        # genuinely overruns the 2-slot budget: the stall happens
        # *inside* admission, holding the slot like a slow store scan.
        plan = FaultPlan(
            seed=6,
            default=ServingFaultSpec(stall=1.0, stall_range=(0.003, 0.006)),
        )
        service = ChaosAnalyticsService(
            serving_store,
            plan,
            obs=obs,
            admission=AdmissionConfig(
                max_inflight=2, seed=42, breaker_threshold=0
            ),
        )
        with serve_analytics(service, obs=obs) as server:
            host, port = server.server.server_address[:2]
            result = run_storm(
                host,
                port,
                storm_paths,
                clients=8,
                requests_per_client=20,
                seed=9,
            )
        # Zero resource-exhaustion 5xx: every request either served or
        # was shed with a retryable 429.
        assert set(result.status_counts) <= {200, 429}
        assert result.transport_errors == {}
        assert result.count(200) > 0
        assert result.count(429) > 0
        assert result.total == 8 * 20
        # Every shed carried a positive Retry-After hint.
        assert len(result.retry_after) == result.count(429)
        assert all(hint > 0 for hint in result.retry_after)
        # Accepted responses are byte-identical to the unloaded run.
        assert result.accepted
        for path, body in result.accepted:
            assert body == reference_bodies[path], path

    def test_probes_answer_during_the_storm(self, serving_store, storm_paths):
        plan = FaultPlan(
            seed=1,
            default=ServingFaultSpec(stall=1.0, stall_range=(0.01, 0.02)),
        )
        service = ChaosAnalyticsService(
            serving_store,
            plan,
            admission=AdmissionConfig(max_inflight=1, breaker_threshold=0),
        )
        with serve_analytics(service) as server:
            host, port = server.server.server_address[:2]
            stop = threading.Event()

            def storm():
                while not stop.is_set():
                    run_storm(
                        host, port, storm_paths, clients=4, requests_per_client=5
                    )

            storm_thread = threading.Thread(target=storm, daemon=True)
            storm_thread.start()
            try:
                # Liveness and readiness stay green throughout: probes
                # bypass admission and are exempt from chaos.
                for _ in range(10):
                    for probe in ("/healthz", "/readyz"):
                        with urllib.request.urlopen(
                            server.base_url + probe, timeout=10
                        ) as response:
                            assert response.status == 200
            finally:
                stop.set()
                storm_thread.join(timeout=30)

    def test_storm_is_deterministic_under_a_fixed_seed(
        self, serving_store, storm_paths
    ):
        """Same seeds, same store → the same accepted bodies, and
        every Retry-After hint drawn from the seeded jitter sequence
        (the shed *count* depends on thread timing; the payloads and
        the hint values must not)."""

        def once():
            plan = FaultPlan(
                seed=3,
                default=ServingFaultSpec(
                    stall=1.0, stall_range=(0.002, 0.004)
                ),
            )
            service = ChaosAnalyticsService(
                serving_store,
                plan,
                admission=AdmissionConfig(
                    max_inflight=2, seed=7, breaker_threshold=0
                ),
            )
            with serve_analytics(service) as server:
                host, port = server.server.server_address[:2]
                return run_storm(
                    host,
                    port,
                    storm_paths,
                    clients=4,
                    requests_per_client=10,
                    seed=5,
                )

        first, second = once(), once()
        # Accepted bodies are a function of (store, path) alone.
        assert dict(first.accepted) == dict(second.accepted)
        # Hints replay the seeded jitter stream: every observed value
        # appears in the sequence random.Random(7) produces (headers
        # round to 3 decimals, so compare at that precision).
        lo, hi = AdmissionConfig().retry_after
        rng = random.Random(7)
        expected = {
            round(rng.uniform(lo, hi), 3) for _ in range(4 * 10 * 2)
        }
        for result in (first, second):
            assert result.retry_after  # the storm did shed
            assert all(hint in expected for hint in result.retry_after)
