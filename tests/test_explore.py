"""Tests for the ``repro.explore`` subsystem.

Covers the acceptance criteria of the exploration tentpole:

* the scheduler's decision-source refactor is bit-exact against the
  pre-refactor RNG draw sequence (pinned DEAR trace fingerprints);
* same root seed => identical recorded decision trace, and replaying a
  trace (RNG bypassed) reproduces identical telemetry;
* PCT-style preemption injection finds a frame-dropping schedule in
  fewer executions than uniform-random seed sweeping, at fixed seeds;
* ddmin shrinks a failing schedule to a 1-minimal preemption set that
  still reproduces, including under record/replay;
* the DEAR variant is trace-fingerprint-identical across 100+ explored
  in-budget schedules, and over-budget schedules diverge only with a
  flagged violation — never silently.
"""

import json
from dataclasses import replace

import pytest

from repro.apps import registry
from repro.apps.brake.det import run_det_brake_assistant
from repro.apps.brake.nondet import run_nondet_brake_assistant
from repro.explore import (
    IN_BUDGET_PREEMPT_NS,
    DecisionTrace,
    Explorer,
    InterventionSchedule,
    PctStrategy,
    PreemptionPoint,
    RandomSweepStrategy,
    ReplayDivergence,
    ScheduleRecorder,
    ScheduleReplayer,
    calibration_scenario,
    is_scheduler_stream,
    shrink_schedule,
    verify_determinism,
)
from repro.harness.sweep import SweepRunner
from repro.sim.rng import RngTree, stream_hooks

# DEAR per-environment trace fingerprints of the unperturbed reference
# run (seed 0, 30-frame calibration scenario, deterministic camera),
# captured before the scheduler's pluggable decision-source refactor.
# They pin two contracts at once: the refactor preserved the historical
# RNG draw sequence bit-exactly, and the simulation remains reproducible.
REFERENCE_FINGERPRINTS = {
    "adapter":
        "c128db57970e9f9361b80ac1a8d3724e0e37a97b8065387665606355a1c6842d",
    "preprocessing":
        "898e379da572b9a66735aa8be0877068f6c4806d679bae6ebde86008a4c9cd5d",
    "computer-vision":
        "e729799f30db230b41c68061fac06acd1e50d8ad99408d0d14ad3c5bdaccd750",
    "eba":
        "bf52905aab178b8be1411cf806430a0786a6e9c6f5907be52f3e6a63e96421dc",
}


def _sweep():
    return SweepRunner(workers=1, use_cache=False)


def _det_scenario(n_frames=30):
    return calibration_scenario(n_frames, deterministic_camera=True)


class TestStreamHooks:
    def test_hook_sees_scheduler_streams(self):
        seen = []

        def hook(path, rng):
            seen.append(path)
            return None

        with stream_hooks(hook):
            tree = RngTree(0)
            tree.child("platform.p").stream("scheduler")
            tree.child("platform.p").stream("camera")
        assert any(is_scheduler_stream(path) for path in seen)
        assert any(not is_scheduler_stream(path) for path in seen)

    def test_hooks_do_not_leak_past_the_context(self):
        seen = []
        with stream_hooks(lambda path, rng: seen.append(path)):
            RngTree(0).stream("scheduler")
        count = len(seen)
        RngTree(0).stream("scheduler")
        assert len(seen) == count

    def test_is_scheduler_stream(self):
        assert is_scheduler_stream("scheduler")
        assert is_scheduler_stream("platform.fusion-ecu/scheduler")
        assert not is_scheduler_stream("platform.fusion-ecu/camera")
        assert not is_scheduler_stream("platform.p/scheduler-extra")


class TestSchedulerBackCompat:
    def test_decision_source_refactor_is_bit_exact(self):
        result = run_det_brake_assistant(0, _det_scenario())
        assert result.trace_fingerprints == REFERENCE_FINGERPRINTS

    def test_empty_schedule_reproduces_baseline(self):
        baseline = run_det_brake_assistant(0, _det_scenario())
        controller = InterventionSchedule(base_seed=0).controller()
        with stream_hooks(controller):
            hooked = run_det_brake_assistant(0, _det_scenario())
        assert hooked.trace_fingerprints == baseline.trace_fingerprints
        assert controller.applied == []


class TestRecordReplay:
    def test_same_seed_identical_decision_trace(self):
        scenario = calibration_scenario(20)
        traces = []
        for _ in range(2):
            recorder = ScheduleRecorder(base_seed=7)
            with stream_hooks(recorder):
                run_nondet_brake_assistant(7, scenario)
            traces.append(recorder.trace)
        assert len(traces[0].records) > 500
        assert traces[0].fingerprint() == traces[1].fingerprint()

    def test_different_seed_different_decision_trace(self):
        scenario = calibration_scenario(20)
        fingerprints = []
        for seed in (0, 1):
            recorder = ScheduleRecorder(base_seed=seed)
            with stream_hooks(recorder):
                run_nondet_brake_assistant(seed, scenario)
            fingerprints.append(recorder.trace.fingerprint())
        assert fingerprints[0] != fingerprints[1]

    def test_replay_reproduces_telemetry_bit_exactly(self):
        scenario = calibration_scenario(20)
        recorder = ScheduleRecorder(base_seed=3)
        with stream_hooks(recorder):
            recorded = run_nondet_brake_assistant(3, scenario)

        replayer = ScheduleReplayer(recorder.trace)
        with stream_hooks(replayer):
            replayed = run_nondet_brake_assistant(3, scenario)
        assert replayer.consumed == len(recorder.trace.records)
        assert replayed.trace_fingerprints == recorded.trace_fingerprints
        assert replayed.commands == recorded.commands
        assert replayed.errors.as_dict() == recorded.errors.as_dict()

    def test_trace_json_round_trip(self, tmp_path):
        recorder = ScheduleRecorder(base_seed=3)
        with stream_hooks(recorder):
            run_nondet_brake_assistant(3, calibration_scenario(10))
        path = tmp_path / "trace.json"
        recorder.trace.save(path)
        loaded = DecisionTrace.load(path)
        assert loaded.base_seed == 3
        assert loaded.fingerprint() == recorder.trace.fingerprint()
        assert loaded.records == recorder.trace.records
        # The on-disk form is plain JSON, inspectable by other tooling.
        assert json.loads(path.read_text())["format"] == "decision-trace/v1"

    def test_strict_replay_flags_divergence(self):
        recorder = ScheduleRecorder(base_seed=3)
        with stream_hooks(recorder):
            run_nondet_brake_assistant(3, calibration_scenario(10))
        # A longer run needs more decisions than were recorded: the
        # strict replayer must refuse rather than silently improvise.
        replayer = ScheduleReplayer(recorder.trace)
        with pytest.raises(ReplayDivergence):
            with stream_hooks(replayer):
                run_nondet_brake_assistant(3, calibration_scenario(15))


class TestInterventionSchedules:
    def test_schedule_round_trip(self):
        schedule = InterventionSchedule(
            base_seed=4,
            preemptions=(
                PreemptionPoint(10, 1000, "a"),
                PreemptionPoint(20, 2000, "b"),
            ),
            label="x",
        )
        assert InterventionSchedule.from_dict(schedule.to_dict()) == schedule

    def test_describe_is_human_readable(self):
        point = PreemptionPoint(137, 25_000_000, "fusion-ecu.periodic.preprocessing")
        text = point.describe()
        assert "dispatch #137" in text
        assert "fusion-ecu.periodic.preprocessing" in text
        assert "25.0 ms" in text

    def test_controller_applies_and_resolves_threads(self):
        schedule = InterventionSchedule(
            base_seed=0, preemptions=(PreemptionPoint(5, IN_BUDGET_PREEMPT_NS),)
        )
        controller = schedule.controller()
        with stream_hooks(controller):
            run_nondet_brake_assistant(0, calibration_scenario(5))
        assert len(controller.applied) == 1
        assert controller.applied[0].site == 5
        assert controller.applied[0].thread != ""

    def test_exclusion_suppresses_matching_threads(self):
        schedule = InterventionSchedule(
            base_seed=0, preemptions=(PreemptionPoint(5, IN_BUDGET_PREEMPT_NS),)
        )
        controller = schedule.controller()
        with stream_hooks(controller):
            run_nondet_brake_assistant(0, calibration_scenario(5))
        hit = controller.applied[0].thread

        baseline = run_nondet_brake_assistant(0, calibration_scenario(5))
        excluded = schedule.controller(exclude=(hit,))
        with stream_hooks(excluded):
            result = run_nondet_brake_assistant(0, calibration_scenario(5))
        assert excluded.applied == []
        assert [p.site for p in excluded.suppressed] == [5]
        # Suppression means baseline behaviour, bit for bit.
        assert result.trace_fingerprints == baseline.trace_fingerprints


class TestExplorationSearch:
    def test_pct_beats_random_at_fixed_seeds(self):
        scenario = calibration_scenario(50)
        pct = Explorer(
            scenario=scenario, strategy=PctStrategy(), sweep=_sweep()
        ).explore(budget=40)
        random_sweep = Explorer(
            scenario=scenario, strategy=RandomSweepStrategy(), sweep=_sweep()
        ).explore(budget=40)

        assert pct.found is not None, "PCT must find a frame drop"
        assert random_sweep.found is not None, "random must eventually find one"
        # The acceptance gap: PCT needs strictly fewer executions.
        assert pct.executions_used < random_sweep.executions_used
        assert pct.executions_used <= 5
        assert random_sweep.executions_used >= 15
        # Found outcomes carry resolved thread names for the report.
        assert all(p.thread for p in pct.found.schedule.preemptions)

    def test_explorer_respects_budget(self):
        result = Explorer(
            scenario=calibration_scenario(10),
            strategy=PctStrategy(depth=0),  # baseline-only schedules
            sweep=_sweep(),
        ).explore(budget=3)
        assert result.found is None
        assert len(result.executions) == 3


class TestShrink:
    @pytest.fixture(scope="class")
    def found(self):
        explorer = Explorer(
            scenario=calibration_scenario(50),
            strategy=PctStrategy(),
            sweep=_sweep(),
        )
        result = explorer.explore(budget=40)
        assert result.found is not None
        return explorer, result.found

    def test_shrink_is_one_minimal_and_reproduces(self, found):
        explorer, outcome = found
        shrunk = shrink_schedule(explorer, outcome.schedule)
        minimal = shrunk.minimal
        assert 1 <= len(minimal.preemptions) <= len(outcome.schedule.preemptions)
        assert shrunk.errors and sum(shrunk.errors.values()) > 0

        # Still reproduces, and the points carry the threads they hit.
        result, controller = explorer.run_schedule(minimal)
        assert result.errors.total() > 0
        assert [(p.site, p.delay_ns, p.thread) for p in minimal.preemptions] == [
            (p.site, p.delay_ns, p.thread) for p in controller.applied
        ]
        # 1-minimal: dropping any single remaining point loses the bug.
        for point in minimal.preemptions:
            rest = [p for p in minimal.preemptions if p != point]
            result, _ = explorer.run_schedule(minimal.with_points(rest))
            assert result.errors.total() == 0, (
                f"{point.describe()} is not needed for the failure"
            )

    def test_minimal_schedule_reproduces_under_replay(self, found):
        explorer, outcome = found
        shrunk = shrink_schedule(explorer, outcome.schedule)
        recorded_result, trace = explorer.record(shrunk.minimal)
        assert recorded_result.errors.total() > 0

        replayer = ScheduleReplayer(trace)
        with stream_hooks(replayer):
            replayed = run_nondet_brake_assistant(
                shrunk.minimal.base_seed, explorer.scenario
            )
        assert replayed.errors.as_dict() == recorded_result.errors.as_dict()
        assert replayed.trace_fingerprints == recorded_result.trace_fingerprints

    def test_shrink_requires_a_reproducing_schedule(self):
        explorer = Explorer(scenario=calibration_scenario(10), sweep=_sweep())
        benign = InterventionSchedule(base_seed=0)
        with pytest.raises(ValueError):
            shrink_schedule(explorer, benign)


class TestDeterminismVerification:
    def test_in_budget_schedules_are_fingerprint_identical_100_plus(self):
        scenario = _det_scenario()
        horizon = Explorer(
            experiment=run_det_brake_assistant, scenario=scenario, sweep=_sweep()
        ).horizon
        strategy = PctStrategy(preempt_ns=IN_BUDGET_PREEMPT_NS, seed=9)
        schedules = [
            strategy.schedule_for(index + 1, 0, horizon) for index in range(110)
        ]
        result = verify_determinism(schedules, scenario, sweep=_sweep())
        assert result.schedules == 110
        assert result.identical == 110
        assert result.ok
        assert result.reference == REFERENCE_FINGERPRINTS

    def test_over_budget_divergence_is_always_flagged(self):
        scenario = _det_scenario()
        horizon = Explorer(
            experiment=run_det_brake_assistant, scenario=scenario, sweep=_sweep()
        ).horizon
        strategy = PctStrategy(seed=9)  # 25 ms preemptions: deadline-busting
        schedules = [
            strategy.schedule_for(index + 1, 0, horizon) for index in range(20)
        ]
        result = verify_determinism(schedules, scenario, sweep=_sweep())
        assert result.silent_divergences == []
        assert result.ok
        # The big preemptions genuinely perturb runs — and every
        # divergence comes with an observable violation.
        assert len(result.flagged) > 0
        for verdict in result.flagged:
            assert verdict.deadline_misses > 0 or verdict.stp_violations > 0


#: ``explore --app failover --verify`` finds silent divergences.
_FAILOVER_DIVERGES = pytest.mark.xfail(
    strict=True,
    reason=(
        "failover DEAR diverges silently under in-budget preemptions: of "
        "PctStrategy(seed=9) schedule 1 (seed 0, 50 frames), the single 2 ms "
        "preemption at dispatch site 75 changes the consumer fingerprint "
        "with 0 deadline misses and 0 STP violations (open ROADMAP item)"
    ),
)


@pytest.mark.parametrize(
    "app",
    [
        pytest.param(app, marks=_FAILOVER_DIVERGES) if app == "failover" else app
        for app in registry.names(library=True)
    ],
)
def test_library_app_is_deterministic_under_in_budget_schedules(app):
    """``repro explore --app APP --verify 5`` at its defaults, in process."""
    definition = registry.get(app)
    experiment = definition.runner("det")
    scenario = replace(
        definition.default_scenario(),
        n_frames=50,
        **{definition.fixed_inputs_knob: True},
    )
    horizon = Explorer(
        experiment=experiment, scenario=scenario, sweep=_sweep()
    ).horizon
    strategy = PctStrategy(depth=6, preempt_ns=IN_BUDGET_PREEMPT_NS, seed=9)
    schedules = [strategy.schedule_for(index + 1, 0, horizon) for index in range(5)]
    result = verify_determinism(
        schedules,
        scenario,
        experiment=experiment,
        input_threads=definition.input_threads,
        sweep=_sweep(),
    )
    assert result.silent_divergences == []
    assert result.identical == result.schedules == 5
