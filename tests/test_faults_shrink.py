"""ddmin over fired-fault traces: minimal fault sets from failing runs."""

import pytest

from repro.apps.brake import BrakeScenario
from repro.apps.brake.det import run_det_brake_assistant
from repro.explore import DecisionTrace, ddmin
from repro.faults import FaultInjector, FaultPlan, shrink_fault_trace
from repro.network.switch import Frame

SCENARIO = BrakeScenario(n_frames=40, deterministic_camera=True)
PLAN = FaultPlan.camera_faults(seed=7, drop=0.15, label="shrink-me")


def _camera_frame(index: int) -> Frame:
    return Frame(
        src_host="camera-ecu",
        src_port=40000,
        dst_host="fusion-ecu",
        dst_port=15000,
        payload=index,
        size_bytes=4096,
    )


def _record_unit_trace(n_frames: int = 200) -> DecisionTrace:
    injector = FaultInjector(PLAN)
    for i in range(n_frames):
        injector.on_send(_camera_frame(i), i * 1000)
    return injector.trace


class TestGenericDdmin:
    def test_finds_the_minimal_subset(self):
        needed = {1, 7, 8}
        minimal = ddmin(list(range(10)), lambda s: needed <= set(s))
        assert sorted(minimal) == sorted(needed)

    def test_result_is_one_minimal(self):
        def reproduces(subset):
            return {2, 5} <= set(subset)

        minimal = ddmin(list(range(8)), reproduces)
        for item in minimal:
            assert not reproduces([x for x in minimal if x != item])

    def test_single_item_failure(self):
        assert ddmin(list(range(16)), lambda s: 11 in s) == [11]


class TestShrinkFaultTrace:
    def test_shrinks_to_the_one_needed_drop(self):
        trace = _record_unit_trace()
        assert len(trace.records) >= 4
        target = trace.records[2]

        def failure(candidate: DecisionTrace) -> bool:
            # Replaying the candidate, is the target frame still dropped?
            injector = FaultInjector(PLAN, replay=candidate)
            verdicts = [
                injector.on_send(_camera_frame(i), i * 1000) for i in range(200)
            ]
            verdict = verdicts[target.bound]
            return verdict is not None and verdict.drop == "drop"

        result = shrink_fault_trace(PLAN, trace, failure)
        assert len(result.minimal.records) == 1
        assert result.minimal.records[0].bound == target.bound
        assert result.removed == len(trace.records) - 1
        assert result.trials == len(result.history)
        assert f"drop {target.name}#{target.bound}" in result.describe()

    def test_raises_when_the_full_trace_does_not_reproduce(self):
        trace = _record_unit_trace()
        with pytest.raises(ValueError):
            shrink_fault_trace(PLAN, trace, lambda candidate: False)

    def test_shrinks_an_end_to_end_brake_failure(self):
        # Record one faulty run, then ask: which fired faults does "the
        # pipeline answered fewer frames than the no-fault baseline"
        # actually need?  ddmin re-runs the det pipeline with subset
        # replays; the answer is a single dropped frame.
        baseline = run_det_brake_assistant(0, SCENARIO)
        first = run_det_brake_assistant(0, SCENARIO, fault_plan=PLAN)
        trace = DecisionTrace.from_dict(first.fault_summary["trace"])
        assert len(first.commands) < len(baseline.commands)

        def failure(candidate: DecisionTrace) -> bool:
            # shrink_fault_trace runs each probe under replay(candidate).
            rerun = run_det_brake_assistant(0, SCENARIO, fault_plan=PLAN)
            return len(rerun.commands) < len(baseline.commands)

        result = shrink_fault_trace(PLAN, trace, failure)
        assert len(result.minimal.records) == 1
        assert result.minimal.records[0].kind == "drop"
