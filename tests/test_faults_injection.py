"""Determinism of the fault injector: PRF decisions, replay, no perturbation."""

from dataclasses import replace

import pytest

from repro.apps.brake import BrakeScenario
from repro.apps.brake.det import run_det_brake_assistant
from repro.apps.brake.nondet import run_nondet_brake_assistant
from repro.errors import SimulationError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkFault,
    NodeOutage,
    install_fault_plan,
    replay,
)
from repro.network.switch import Frame
from repro.sim import World

DET_SCENARIO = BrakeScenario(n_frames=40, deterministic_camera=True)
DROP_PLAN = FaultPlan.camera_faults(seed=7, drop=0.15, label="drops")


def _camera_frame(index: int = 0) -> Frame:
    return Frame(
        src_host="camera-ecu",
        src_port=40000,
        dst_host="fusion-ecu",
        dst_port=15000,
        payload=index,
        size_bytes=4096,
    )


class TestInjectorUnit:
    def test_decisions_are_pure_functions_of_plan_seed(self):
        a = FaultInjector(DROP_PLAN)
        b = FaultInjector(DROP_PLAN)
        verdicts_a = [a.on_send(_camera_frame(i), i * 1000) for i in range(200)]
        verdicts_b = [b.on_send(_camera_frame(i), i * 1000) for i in range(200)]
        assert verdicts_a == verdicts_b
        assert a.trace.fingerprint() == b.trace.fingerprint()
        assert a.fired > 0

    def test_different_fault_seed_changes_decisions(self):
        a = FaultInjector(DROP_PLAN)
        b = FaultInjector(DROP_PLAN.with_seed(8))
        for i in range(200):
            a.on_send(_camera_frame(i), i * 1000)
            b.on_send(_camera_frame(i), i * 1000)
        assert a.trace.fingerprint() != b.trace.fingerprint()

    def test_unmatched_flow_is_untouched(self):
        injector = FaultInjector(DROP_PLAN)
        frame = Frame(
            src_host="a", src_port=1, dst_host="b", dst_port=30490,
            payload=None, size_bytes=64,
        )
        assert all(injector.on_send(frame, t) is None for t in range(100))
        assert injector.fired == 0

    def test_replay_table_reproduces_and_subsets(self):
        live = FaultInjector(DROP_PLAN)
        for i in range(200):
            live.on_send(_camera_frame(i), i * 1000)
        assert live.fired >= 4, "plan too weak for the test to mean anything"

        replayed = FaultInjector(DROP_PLAN, replay=live.trace)
        for i in range(200):
            replayed.on_send(_camera_frame(i), i * 1000)
        assert replayed.trace.fingerprint() == live.trace.fingerprint()

        from dataclasses import replace

        subset = replace(live.trace, records=live.trace.records[::2])
        partial = FaultInjector(DROP_PLAN, replay=subset)
        for i in range(200):
            partial.on_send(_camera_frame(i), i * 1000)
        assert partial.fired == len(subset.records)

    def test_verdict_kinds(self):
        plan = FaultPlan(
            seed=1,
            link_faults=(
                LinkFault(
                    dst_port=15000,
                    corrupt_probability=1.0,
                    spike_probability=1.0,
                    spike_ns=500,
                    duplicate_probability=1.0,
                    duplicate_delay_ns=50,
                ),
            ),
        )
        injector = FaultInjector(plan)
        verdict = injector.on_send(_camera_frame(), 0)
        assert verdict.corrupt
        assert verdict.extra_delay_ns == 500
        assert verdict.duplicate_delay_ns == 50
        assert verdict.drop is None
        assert injector.counters == {"corrupt": 1, "spike": 1, "duplicate": 1}


class TestInstallValidation:
    def test_outage_needs_known_host(self):
        world = World(0)
        plan = FaultPlan(outages=(NodeOutage(host="ghost", start_ns=0, end_ns=1),))
        with pytest.raises(SimulationError):
            install_fault_plan(world, plan)

    def test_link_faults_need_a_network(self):
        world = World(0)
        with pytest.raises(SimulationError):
            install_fault_plan(world, DROP_PLAN)


def _camera_world(plan=DROP_PLAN):
    from repro.ara import build_world

    return build_world(0, [("camera-ecu", None), ("fusion-ecu", None)], None, plan)


def _fired(injector, n_frames: int = 200) -> list[int]:
    """Frame indices *injector* drops over *n_frames* camera frames."""
    return [
        i
        for i in range(n_frames)
        if injector.on_send(_camera_frame(i), i * 1000) is not None
    ]


def _live_trace():
    live = FaultInjector(DROP_PLAN)
    fired = _fired(live)
    assert len(fired) >= 4, "plan too weak for the test to mean anything"
    return live.trace, fired


class TestReplayContext:
    def test_previous_replay_is_restored_on_exit(self):
        trace, fired = _live_trace()
        subset = replace(trace, records=trace.records[:1])
        with replay(subset):
            with replay(replace(trace, records=[])):
                assert _fired(_camera_world().fault_injector) == []
            assert _fired(_camera_world().fault_injector) == fired[:1]
        assert _fired(_camera_world().fault_injector) == fired

    def test_previous_replay_is_restored_on_exception(self):
        trace, fired = _live_trace()
        with pytest.raises(RuntimeError):
            with replay(replace(trace, records=[])):
                raise RuntimeError("probe failed")
        assert _fired(_camera_world().fault_injector) == fired

    def test_world_built_outside_the_context_decides_live(self):
        trace, fired = _live_trace()
        world = _camera_world()
        with replay(replace(trace, records=[])):
            assert _fired(world.fault_injector) == fired

    def test_no_fault_plan_installs_no_injector(self):
        trace, _ = _live_trace()
        with replay(trace):
            for plan in (None, FaultPlan()):
                world = _camera_world(plan)
                assert world.fault_injector is None
                assert world.network._faults is None


class TestBrakeRunsUnderFaults:
    def test_same_seed_and_plan_replays_bit_exactly(self):
        first = run_det_brake_assistant(0, DET_SCENARIO, fault_plan=DROP_PLAN)
        second = run_det_brake_assistant(0, DET_SCENARIO, fault_plan=DROP_PLAN)
        assert first.fault_summary == second.fault_summary
        assert first.fault_summary["fired"] > 0
        assert first.trace_fingerprints == second.trace_fingerprints
        assert first.commands == second.commands

    def test_no_faults_means_no_summary(self):
        result = run_det_brake_assistant(0, DET_SCENARIO)
        assert result.fault_summary is None

    def test_never_firing_plan_does_not_perturb_the_run(self):
        # A plan that matches every camera frame but never fires must
        # leave the run byte-identical: the injector consumes nothing
        # from the world's RNG tree.
        inert = FaultPlan(
            seed=5, link_faults=(LinkFault(dst_port=15000, drop_probability=0.0),)
        )
        baseline = run_det_brake_assistant(0, DET_SCENARIO)
        nulled = run_det_brake_assistant(0, DET_SCENARIO, fault_plan=inert)
        assert nulled.fault_summary["fired"] == 0
        assert nulled.trace_fingerprints == baseline.trace_fingerprints
        assert nulled.commands == baseline.commands
        assert nulled.latencies_ns == baseline.latencies_ns

    def test_fault_schedule_is_stable_across_world_seeds(self):
        # PRF decisions key on the plan seed and per-flow frame index,
        # never on the world seed: every world sees the same schedule.
        summaries = [
            run_nondet_brake_assistant(
                seed, BrakeScenario(n_frames=40), fault_plan=DROP_PLAN
            ).fault_summary
            for seed in (0, 1, 2)
        ]
        fingerprints = {s["trace_fingerprint"] for s in summaries}
        assert len(fingerprints) == 1
        assert summaries[0]["fired"] > 0

    def test_fault_replay_reproduces_a_run(self):
        from dataclasses import replace

        from repro.explore import DecisionTrace

        first = run_det_brake_assistant(0, DET_SCENARIO, fault_plan=DROP_PLAN)
        recorded = DecisionTrace.from_dict(first.fault_summary["trace"])
        assert recorded.records

        with replay(recorded):
            replayed = run_det_brake_assistant(0, DET_SCENARIO, fault_plan=DROP_PLAN)
        assert replayed.fault_summary["trace_fingerprint"] == (
            first.fault_summary["trace_fingerprint"]
        )
        assert replayed.trace_fingerprints == first.trace_fingerprints
        assert replayed.commands == first.commands

        # Any subset of the recorded schedule is itself a valid schedule.
        subset = replace(recorded, records=recorded.records[:2])
        with replay(subset):
            partial = run_det_brake_assistant(0, DET_SCENARIO, fault_plan=DROP_PLAN)
        assert partial.fault_summary["fired"] == 2

    def test_corrupt_frames_are_counted_losses(self):
        plan = FaultPlan(
            seed=2,
            link_faults=(LinkFault(dst_port=15000, corrupt_probability=0.2),),
        )
        result = run_det_brake_assistant(0, DET_SCENARIO, fault_plan=plan)
        corrupted = result.fault_summary["counters"].get("corrupt", 0)
        assert corrupted > 0
        # A corrupted frame is lost at the NIC, never delivered as data:
        # the pipeline simply answers fewer frames.
        assert len(result.commands) <= DET_SCENARIO.n_frames - corrupted + 1
