"""Request-level observability on the serving tier, end to end.

The acceptance bar (DESIGN.md §15): every data request dispatched —
success, cache hit, 4xx, shed 429, blown-deadline 504, contained crash
500, aborted-body 499 — leaves exactly one canonical record whose
status matches the wire; injected stalls are attributed to the correct
layer; the ``/debug/*`` introspection endpoints answer while admission
is saturated; the record ring stays bounded under a storm; and
same-seed serial runs produce byte-identical record streams under
``FakeClock``.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.faults import FaultPlan
from repro.obs import Obs
from repro.obs.clock import FakeClock
from repro.obs.reqlog import LAYERS, RequestLog, encode_record
from repro.obs.slo import SLOSpec, SLOTracker
from repro.serving import (
    AdmissionConfig,
    AnalyticsService,
    ChaosAnalyticsService,
    ServingFaultSpec,
    serve_analytics,
)
from repro.serving.chaos import InjectedCrash, run_storm
from repro.steamapi.deadline import Deadline, deadline_scope
from repro.steamapi.errors import (
    BadRequestError,
    DeadlineExceededError,
    NotFoundError,
    OverloadedError,
)
from repro.steamapi.faults import AbortedResponse


def _logged_service(store, **kwargs) -> AnalyticsService:
    clock = kwargs.pop("clock", None) or FakeClock(tick=0.001)
    log = RequestLog(clock=clock)
    slo = SLOTracker(
        [SLOSpec(route="*", target=0.999, latency_threshold_s=60.0)],
        clock=clock,
    )
    return AnalyticsService(store, request_log=log, slo=slo, **kwargs)


class TestDispatchRecords:
    """One canonical record per data dispatch, on every exit path."""

    def test_success_records_cache_miss_then_hit(self, serving_store):
        service = _logged_service(serving_store)
        service.dispatch("/tailfit/friends", {})
        service.dispatch("/tailfit/friends", {})
        miss, hit = service.request_log.records()
        for record in (miss, hit):
            assert record["status"] == 200
            assert record["route"] == "/tailfit/<attr>"
            assert record["path"] == "/tailfit/friends"
            assert record["admission"] == "admitted"
            assert set(record["layers"]) == set(LAYERS)
        assert miss["cache"] == "miss"
        assert miss["layers"]["store"] > 0.0
        assert hit["cache"] == "hit"
        assert hit["layers"]["store"] == 0.0  # never reached the store

    def test_client_errors_record_wire_matching_statuses(
        self, serving_store
    ):
        service = _logged_service(serving_store)
        with pytest.raises(NotFoundError):
            service.dispatch("/no/such/route", {})
        with pytest.raises(BadRequestError):
            service.dispatch(
                "/distributions/friends/percentile", {}
            )  # missing q
        with pytest.raises(NotFoundError):
            service.dispatch("/tailfit/not_an_attribute", {})
        records = service.request_log.records()
        assert [r["status"] for r in records] == [404, 400, 404]
        assert records[0]["route"] == "<unmatched>"
        assert records[1]["route"] == "/distributions/<attr>/percentile"

    def test_shed_records_429_with_admission_reason(self, serving_store):
        service = _logged_service(
            serving_store,
            admission=AdmissionConfig(max_inflight=1, breaker_threshold=0),
        )
        with service.admission.admit("/elsewhere"):
            with pytest.raises(OverloadedError):
                service.dispatch("/tailfit/friends", {})
        (record,) = service.request_log.records()
        assert record["status"] == 429
        assert record["admission"] == "shed:capacity"
        assert record["breaker"] == "closed"

    def test_blown_deadline_records_504_and_remaining_budget(
        self, serving_store
    ):
        service = _logged_service(serving_store)
        expired = Deadline.after(0.0)
        with deadline_scope(expired):
            with pytest.raises(DeadlineExceededError):
                service.dispatch("/tailfit/friends", {})
        (record,) = service.request_log.records()
        assert record["status"] == 504
        assert record["deadline_remaining_s"] <= 0.0

    def test_injected_crash_and_abort_record_fault_kinds(
        self, serving_store
    ):
        clock = FakeClock(tick=0.001)
        crash_service = ChaosAnalyticsService(
            serving_store,
            FaultPlan(seed=0, default=ServingFaultSpec(crash=1.0)),
            request_log=RequestLog(clock=clock),
        )
        with pytest.raises(InjectedCrash):
            crash_service.dispatch("/tailfit/friends", {})
        (record,) = crash_service.request_log.records()
        assert record["status"] == 500
        assert record["fault"] == "crash"

        abort_service = ChaosAnalyticsService(
            serving_store,
            FaultPlan(seed=0, default=ServingFaultSpec(abort=1.0)),
            request_log=RequestLog(clock=FakeClock(tick=0.001)),
        )
        with pytest.raises(AbortedResponse):
            abort_service.dispatch("/tailfit/friends", {})
        (record,) = abort_service.request_log.records()
        assert record["status"] == 499  # telemetry sentinel, not a 200
        assert record["fault"] == "abort"

    def test_stall_is_attributed_to_the_handler_layer(self, serving_store):
        # The chaos stall sleeps inside the handler layer but outside
        # the cache/store layers — exactly where a slow scan would
        # live.  On a FakeClock the attribution is exact: the handler's
        # exclusive time (minus cache and store) is the stall.
        clock = FakeClock()
        service = ChaosAnalyticsService(
            serving_store,
            FaultPlan(
                seed=1,
                default=ServingFaultSpec(stall=1.0, stall_range=(0.05, 0.05)),
            ),
            sleep=clock.advance,
            request_log=RequestLog(clock=clock),
        )
        service.dispatch("/tailfit/friends", {})
        (record,) = service.request_log.records()
        layers = record["layers"]
        exclusive = layers["handler"] - layers["cache"] - layers["store"]
        assert exclusive == pytest.approx(0.05)

    def test_probes_and_debug_routes_are_not_recorded(self, serving_store):
        service = _logged_service(serving_store)
        service.dispatch("/healthz", {})
        service.dispatch("/readyz", {})
        service.dispatch("/debug/requests", {})
        service.dispatch("/debug/slo", {})
        assert service.request_log.stats()["total"] == 0
        assert service.slo.snapshot()["routes"] == {}

    def test_slo_feeds_on_every_data_exit(self, serving_store):
        service = _logged_service(serving_store)
        service.dispatch("/tailfit/friends", {})
        with pytest.raises(NotFoundError):
            service.dispatch("/no/such/route", {})  # 404: not our badness
        expired = Deadline.after(0.0)
        with deadline_scope(expired):
            with pytest.raises(DeadlineExceededError):
                service.dispatch("/homophily/friends", {})
        routes = service.slo.snapshot()["routes"]
        assert routes["/tailfit/<attr>"]["good"] == 1
        assert routes["<unmatched>"]["good"] == 1  # 404 is good
        assert routes["/homophily/<attr>"]["bad"] == 1  # 504 is bad


class TestDebugEndpoints:
    """Introspection must answer *during* the incident it explains."""

    def test_debug_requests_bypasses_saturated_admission(
        self, serving_store
    ):
        clock = FakeClock(tick=0.001)
        service = AnalyticsService(
            serving_store,
            request_log=RequestLog(clock=clock),
            slo=SLOTracker([SLOSpec(route="*")], clock=clock),
            admission=AdmissionConfig(max_inflight=1, breaker_threshold=0),
        )
        with serve_analytics(service) as server:
            # Hold the only in-flight slot: every data request sheds.
            with service.admission.admit("/held"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(
                        server.base_url + "/tailfit/friends", timeout=10
                    )
                assert excinfo.value.code == 429
                excinfo.value.read()
                # The handler commits the record *after* writing the
                # response, on the server thread — poll briefly, via
                # the debug endpoint itself (which must keep answering
                # while the slot is held).
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    with urllib.request.urlopen(
                        server.base_url + "/debug/requests?n=10&status=429",
                        timeout=10,
                    ) as response:
                        assert response.status == 200
                        payload = json.loads(response.read())
                    if payload["requests"]:
                        break
                    time.sleep(0.02)
                with urllib.request.urlopen(
                    server.base_url + "/debug/slo", timeout=10
                ) as response:
                    assert response.status == 200
                    slo_payload = json.loads(response.read())
        (shed,) = payload["requests"]
        assert shed["status"] == 429
        assert shed["admission"] == "shed:capacity"
        assert shed["trace_id"] != ""
        assert payload["stats"]["total"] == 1
        assert slo_payload["routes"]["/tailfit/<attr>"]["bad"] == 1

    def test_debug_endpoints_404_when_observability_is_off(
        self, serving_service
    ):
        with pytest.raises(NotFoundError):
            serving_service.dispatch("/debug/requests", {})
        with pytest.raises(NotFoundError):
            serving_service.dispatch("/debug/slo", {})

    def test_debug_requests_filters_and_caps(self, serving_store):
        service = _logged_service(serving_store)
        for _ in range(3):
            service.dispatch("/tailfit/friends", {})
        with pytest.raises(NotFoundError):
            service.dispatch("/missing", {})
        payload = service.dispatch("/debug/requests", {"n": "2"})
        assert len(payload["requests"]) == 2
        payload = service.dispatch("/debug/requests", {"status": "404"})
        assert [r["route"] for r in payload["requests"]] == ["<unmatched>"]
        payload = service.dispatch(
            "/debug/requests", {"route": "/tailfit/<attr>", "n": "10"}
        )
        assert len(payload["requests"]) == 3


class TestWireRecords:
    """The HTTP handler owns the record it opens: one commit, however
    the exchange ends."""

    @pytest.mark.parametrize(
        "path, status",
        [("/tailfit/friends", 200), ("/tailfit/not_an_attribute", 404)],
    )
    def test_failed_reply_write_still_commits_one_record(
        self, serving_store, monkeypatch, path, status
    ):
        service = _logged_service(serving_store)
        with serve_analytics(service) as server:
            handler = server.server.RequestHandlerClass

            def broken_reply(self, *args, **kwargs):
                raise BrokenPipeError("client went away mid-write")

            monkeypatch.setattr(handler, "_reply", broken_reply)
            # The escaping OSError ends the connection; the stdlib
            # reports it on stderr, which is expected here.
            monkeypatch.setattr(
                server.server, "handle_error", lambda *args: None
            )
            with pytest.raises(OSError):
                urllib.request.urlopen(server.base_url + path, timeout=10)
        # The server has drained: the handler's commit has run.
        (record,) = service.request_log.records()
        assert record["status"] == status  # the dispatch's status
        assert record["route"] == "/tailfit/<attr>"
        assert record["bytes_out"] == 0
        routes = service.slo.snapshot()["routes"]
        assert routes["/tailfit/<attr>"]["good"] == 1


class TestStormRecords:
    """The headline guarantee over real sockets: record counts match
    the wire exactly, under chaos."""

    def test_every_storm_request_has_exactly_one_matching_record(
        self, serving_store, storm_paths
    ):
        obs = Obs()
        log = RequestLog(capacity=4096, clock=obs.clock)
        slo = SLOTracker([SLOSpec(route="*")], clock=obs.clock)
        plan = FaultPlan(
            seed=6,
            default=ServingFaultSpec(
                stall=0.2, abort=0.2, crash=0.2, stall_range=(0.001, 0.003)
            ),
        )
        service = ChaosAnalyticsService(
            serving_store,
            plan,
            obs=obs,
            request_log=log,
            slo=slo,
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
                clients=6,
                requests_per_client=15,
                seed=9,
            )
        # The server has drained: every handler committed its record.
        records = log.records()
        assert len(records) == result.total == 6 * 15
        by_status: dict[int, int] = {}
        for record in records:
            by_status[record["status"]] = (
                by_status.get(record["status"], 0) + 1
            )
        # Clean statuses match the wire one for one.
        for status, count in result.status_counts.items():
            assert by_status.pop(status) == count, status
        # Aborts reach the client as transport errors (IncompleteRead);
        # the server books each one under the 499 sentinel.
        aborts = sum(result.transport_errors.values())
        assert by_status.pop(499, 0) == aborts
        assert by_status == {}  # nothing the wire didn't see
        # Chaos outcomes carry their fault kind; wire facts landed.
        assert any(r["fault"] == "abort" for r in records) == (aborts > 0)
        for record in records:
            if record["status"] == 200:
                assert record["bytes_out"] > 0
            assert record["trace_id"] != ""
        # SLO accounting saw every dispatch the log saw.
        routes = slo.snapshot()["routes"]
        assert sum(e["good"] + e["bad"] for e in routes.values()) == len(
            records
        )

    def test_ring_stays_bounded_under_the_storm(
        self, serving_store, storm_paths
    ):
        log = RequestLog(capacity=8)
        service = AnalyticsService(serving_store, request_log=log)
        with serve_analytics(service) as server:
            host, port = server.server.server_address[:2]
            result = run_storm(
                host, port, storm_paths, clients=4, requests_per_client=10
            )
        stats = log.stats()
        assert stats["capacity"] == 8
        assert stats["size"] == 8
        assert stats["total"] == result.total == 4 * 10
        assert stats["dropped"] == stats["total"] - 8
        assert len(log.records()) == 8

    def test_burn_alerts_fire_under_storm_and_stay_silent_clean(
        self, serving_store, storm_paths
    ):
        def storm(plan: FaultPlan | None) -> SLOTracker:
            slo = SLOTracker([SLOSpec(route="*", latency_threshold_s=60.0)])
            if plan is None:
                service = AnalyticsService(serving_store, slo=slo)
            else:
                service = ChaosAnalyticsService(
                    serving_store, plan, slo=slo
                )
            with serve_analytics(service) as server:
                host, port = server.server.server_address[:2]
                run_storm(
                    host,
                    port,
                    storm_paths,
                    clients=4,
                    requests_per_client=10,
                    seed=3,
                )
            return slo

        chaotic = storm(
            FaultPlan(seed=2, default=ServingFaultSpec(crash=0.5))
        )
        alerts = chaotic.evaluate()
        assert any(a.firing for a in alerts)
        assert any(
            window == "page" for (_, window) in chaotic.alert_fires
        )

        clean = storm(None)
        assert not any(a.firing for a in clean.evaluate())
        assert clean.alert_fires == {}

    def test_same_seed_serial_runs_are_byte_identical(self, serving_store):
        """The determinism contract: a fixed request sequence against a
        seeded chaos plan on a FakeClock encodes to the same bytes,
        run after run."""
        paths = [
            "/tailfit/friends",
            "/homophily/owned_games",
            "/distributions/friends/percentile",  # 400: missing q
            "/no/such/route",  # 404
            "/tailfit/friends",  # cache hit
        ] * 4

        def run() -> bytes:
            clock = FakeClock(tick=0.0005)
            log = RequestLog(clock=clock)
            service = ChaosAnalyticsService(
                serving_store,
                FaultPlan(
                    seed=7,
                    default=ServingFaultSpec(
                        stall=0.3,
                        abort=0.2,
                        crash=0.2,
                        stall_range=(0.01, 0.02),
                    ),
                ),
                sleep=clock.advance,
                request_log=log,
                slo=SLOTracker([SLOSpec(route="*")], clock=clock),
            )
            for path in paths:
                try:
                    service.dispatch(path, {})
                except (
                    InjectedCrash,
                    AbortedResponse,
                    NotFoundError,
                    BadRequestError,
                ):
                    pass
            return b"\n".join(
                encode_record(record) for record in log.records()
            )

        first, second = run(), run()
        assert first == second
        assert len(first.splitlines()) == len(paths)
