"""The shared fault-decision core (:mod:`repro.faults`)."""

import threading
from collections import Counter

import pytest

from repro.engine.faults import EngineFaultSpec, decide
from repro.faults import FaultPlan, RequestFaults, draw, pick
from repro.serving.chaos import ServingFaultSpec
from repro.steamapi.faults import FaultSpec

#: ``(seed, stage, attempt, u, kind)`` as computed by the engine
#: injector's own hash draw before the core existed: engine decisions
#: must stay bit-identical.
ENGINE_TAPE = [
    (0, "fig4", 0, 0.077800342001105, "crash"),
    (0, "fig4", 1, 0.8293984175415554, None),
    (0, "fig4", 2, 0.448110448445985, "error"),
    (0, "table4:0", 0, 0.8280602227081314, None),
    (0, "table4:0", 1, 0.27965924503777106, "hang"),
    (0, "table4:0", 2, 0.9837394130290843, None),
    (0, "summary", 0, 0.5239527676823638, "error"),
    (0, "summary", 1, 0.004255710816348356, "crash"),
    (0, "summary", 2, 0.3655819474667841, "hang"),
    (42, "fig4", 0, 0.024632419715967514, "crash"),
    (42, "fig4", 1, 0.5437381968545562, "error"),
    (42, "fig4", 2, 0.4617581069616021, "error"),
    (42, "table4:0", 0, 0.7565599172818657, "slow"),
    (42, "table4:0", 1, 0.7004250759975124, "slow"),
    (42, "table4:0", 2, 0.0019774162230275037, "crash"),
    (42, "summary", 0, 0.0336895469071404, "crash"),
    (42, "summary", 1, 0.6225129845346782, "slow"),
    (42, "summary", 2, 0.5125138564051551, "error"),
    (1337, "fig4", 0, 0.15710296519960115, "crash"),
    (1337, "fig4", 1, 0.8975255018464948, None),
    (1337, "fig4", 2, 0.6542696700156985, "slow"),
    (1337, "table4:0", 0, 0.8061460072358163, None),
    (1337, "table4:0", 1, 0.464694030173045, "error"),
    (1337, "table4:0", 2, 0.7062447912566682, "slow"),
    (1337, "summary", 0, 0.725627836422095, "slow"),
    (1337, "summary", 1, 0.723755313479997, "slow"),
    (1337, "summary", 2, 0.4778141238074713, "error"),
]


class TestDraw:
    @pytest.mark.parametrize("seed,stage,attempt,u,kind", ENGINE_TAPE)
    def test_engine_decisions_unchanged(self, seed, stage, attempt, u, kind):
        spec = EngineFaultSpec(
            crash=0.2, hang=0.2, error=0.2, slow=0.2, max_faulted_attempts=99
        )
        plan = FaultPlan(seed=seed, default=spec)
        assert draw(seed, stage, attempt)[0] == u
        assert decide(plan, stage, attempt) == kind


class TestSpec:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: FaultSpec(rate_limit=1.0, retry_after=(-1.0, -0.5)),
            lambda: FaultSpec(rate_limit=1.0, retry_after=(2.0, 1.0)),
            lambda: ServingFaultSpec(stall=1.0, stall_range=(-0.01, 0.02)),
            lambda: EngineFaultSpec(hang=1.0, hang_seconds=-1.0),
            lambda: EngineFaultSpec(slow=1.0, slow_seconds=-0.05),
        ],
        ids=[
            "retry_after-negative",
            "retry_after-inverted",
            "stall_range-negative",
            "hang_seconds-negative",
            "slow_seconds-negative",
        ],
    )
    def test_rejects_bad_magnitudes(self, make):
        with pytest.raises(ValueError, match="0 <= lo <= hi"):
            make()


def _tape(faults, n, threads=1):
    """Decisions ``(kind, aux)`` of ``n`` requests fed from ``threads``."""
    seen = []
    lock = threading.Lock()
    barrier = threading.Barrier(threads)

    def feed(count):
        barrier.wait()
        for _ in range(count):
            kind, _, aux = faults.next_fault("/x")
            with lock:
                seen.append((kind, aux))

    workers = [
        threading.Thread(target=feed, args=(n // threads,))
        for _ in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return seen


class TestRequestFaults:
    def test_burst_is_an_aligned_block(self):
        spec = FaultSpec(server_error=0.1, timeout=0.1, burst=4)
        faults = RequestFaults(FaultPlan(seed=3, default=spec), spec.KINDS)
        kinds = [kind for kind, _ in _tape(faults, 400)]
        for n, kind in enumerate(kinds):
            assert kind == pick(spec, draw(3, n // 4)[0])
            assert kind == kinds[n - n % 4]
        assert faults.requests_seen == 400
        assert faults.total_injected == sum(k is not None for k in kinds)

    def test_same_tape_from_one_thread_or_many(self):
        spec = ServingFaultSpec(stall=0.1, abort=0.1, crash=0.1, burst=3)
        plan = FaultPlan(seed=21, default=spec)
        serial = RequestFaults(plan, spec.KINDS)
        threaded = RequestFaults(plan, spec.KINDS)
        one = _tape(serial, 1200)
        many = _tape(threaded, 1200, threads=4)
        # Interleaving reorders who gets which request number, never
        # what request n is dealt.
        assert Counter(many) == Counter(one)
        assert threaded.fault_counts == serial.fault_counts
        assert threaded.requests_seen == serial.requests_seen == 1200

    def test_unmatched_path_takes_a_number_but_no_fault(self):
        plan = FaultPlan(overrides={"/a": FaultSpec(server_error=1.0)})
        faults = RequestFaults(plan, FaultSpec.KINDS)
        assert faults.next_fault("/b") == (None, None, 0.0)
        assert faults.next_fault("/a")[0] == "server_error"
        assert faults.requests_seen == 2
