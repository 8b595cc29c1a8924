"""Kernel fingerprint regression: speed must never change a schedule.

The goldens in ``tests/data/kernel_fingerprints.json`` were captured
*before* the sim-kernel throughput overhaul (bucketed dispatch, handle
pooling, batched reaction execution) and pin:

* per-environment logical trace fingerprints of the DEAR brake
  assistant (``Trace.fingerprint()`` — reactions, port values and
  deadline-miss lag), and
* an outcome digest covering commands, latencies, error counters and
  timing violations — which also works for the nondeterministic
  variant, whose behaviour depends on every RNG draw the platform
  makes.

Cases span deterministic seeds, nondeterministic seeds, a replayed PCT
exploration schedule and an active fault plan, so a kernel change that
reorders events, perturbs an RNG stream or shifts physical time fails
here rather than silently altering results.

To refresh after an *intentional* semantic change: regenerate with
``PYTHONPATH=src python benchmarks/capture_kernel_goldens.py`` and
explain the change in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.apps.brake.det import run_det_brake_assistant
from repro.apps.brake.nondet import run_nondet_brake_assistant
from repro.explore import IN_BUDGET_PREEMPT_NS, PctStrategy, calibration_scenario
from repro.faults import FaultPlan
from repro.explore.decisions import is_scheduler_stream
from repro.sim.rng import RandomDecisionSource, stream_hooks

GOLDEN_PATH = Path(__file__).parent / "data" / "kernel_fingerprints.json"


def _load_goldens() -> dict:
    with GOLDEN_PATH.open() as fh:
        data = json.load(fh)
    assert data["format"] == "kernel-fingerprints/v2"
    return data["cases"]


def _run_case(name: str):
    if name.startswith("det-seed"):
        seed = int(name.removeprefix("det-seed"))
        scenario = calibration_scenario(20, deterministic_camera=True)
        return run_det_brake_assistant(seed, scenario)
    if name.startswith("nondet-seed"):
        seed = int(name.removeprefix("nondet-seed"))
        scenario = calibration_scenario(20)
        return run_nondet_brake_assistant(seed, scenario)
    if name == "pct-replay":
        scenario = calibration_scenario(15, deterministic_camera=True)
        strategy = PctStrategy(depth=4, preempt_ns=IN_BUDGET_PREEMPT_NS, seed=5)
        schedule = strategy.schedule_for(1, base_seed=0, horizon=400)
        assert schedule.preemptions, "PCT schedule must actually preempt"
        with stream_hooks(schedule.controller(exclude=("camera",))):
            return run_det_brake_assistant(0, scenario)
    if name == "fault-plan":
        scenario = calibration_scenario(20, deterministic_camera=True)
        plan = FaultPlan.camera_faults(seed=1, drop=0.1, label="kernel-golden")
        return run_det_brake_assistant(0, scenario, fault_plan=plan)
    raise AssertionError(f"unknown golden case {name!r}")


CASES = sorted(_load_goldens())


class TestKernelFingerprints:
    """Every golden case reproduces bit-exactly on the current kernel."""

    @pytest.fixture(scope="class")
    def goldens(self) -> dict:
        return _load_goldens()

    @pytest.mark.parametrize("name", CASES)
    def test_case_matches_golden(self, goldens, name):
        expected = goldens[name]
        result = _run_case(name)
        assert dict(result.trace_fingerprints) == expected["traces"], (
            f"{name}: logical trace fingerprints diverged from the "
            f"pre-overhaul kernel"
        )
        assert result.outcome_digest() == expected["outcome"], (
            f"{name}: outcome digest (commands/latencies/errors) diverged "
            f"from the pre-overhaul kernel"
        )

    def test_det_traces_are_seed_invariant(self, goldens):
        """The DEAR pinning property: det traces identical across seeds."""
        det = [goldens[name]["traces"] for name in CASES if name.startswith("det-")]
        assert len(det) >= 2
        assert all(traces == det[0] for traces in det)

    def test_nondet_outcomes_differ_across_seeds(self, goldens):
        """Sanity: the nondet digest is actually schedule-sensitive."""
        nondet = [
            goldens[name]["outcome"] for name in CASES if name.startswith("nondet-")
        ]
        assert len(nondet) == len(set(nondet))

    def test_trivial_topology_matches_goldens(self, goldens):
        """An explicit single-switch TopologySpec is the legacy network,
        draw for draw: the det golden reproduces byte-identically."""
        from repro.network import ConstantLatency, SwitchConfig
        from repro.network.topology import TopologySpec
        from repro.time import US

        scenario = calibration_scenario(20, deterministic_camera=True)
        config = SwitchConfig(
            latency=ConstantLatency(300 * US),
            loopback_latency=ConstantLatency(50 * US),
            topology=TopologySpec.trivial(("vision-ecu", "fusion-ecu")),
        )
        result = run_det_brake_assistant(0, scenario, switch_config=config)
        expected = goldens["det-seed0"]
        assert dict(result.trace_fingerprints) == expected["traces"]
        assert result.outcome_digest() == expected["outcome"]


class _PassThroughSource:
    """The default source's draws behind the decision-source methods.

    Not a :class:`RandomDecisionSource`, so the CPU scheduler takes its
    general path (a method call per decision, the ``preempt`` query
    asked) instead of the inlined draws.  Records the candidate counts
    and jitter kinds it was asked about.
    """

    def __init__(self, rng, seen):
        self._inner = RandomDecisionSource(rng)
        self._seen = seen

    def pick_index(self, kind, candidates):
        self._seen.add((kind, len(candidates)))
        return self._inner.pick_index(kind, candidates)

    def jitter(self, kind, name, bound_ns):
        self._seen.add(("jitter", kind))
        return self._inner.jitter(kind, name, bound_ns)

    def preempt(self, name):
        return self._inner.preempt(name)


def _scheduler_hook(streams, seen=None):
    """Collect the scheduler streams; wrap them when *seen* is given."""

    def hook(path, rng):
        if not is_scheduler_stream(path):
            return None
        streams.append(rng)
        return None if seen is None else _PassThroughSource(rng, seen)

    return hook


class TestGeneralDecisionPath:
    """The inlined default draws and the general decision-source path
    make the same schedule, draw for draw."""

    @pytest.mark.parametrize(
        "name", [name for name in CASES if name != "pct-replay"]
    )
    def test_golden_case_under_a_pass_through_source(self, name):
        expected = _load_goldens()[name]
        seen: set = set()
        with stream_hooks(_scheduler_hook([], seen)):
            result = _run_case(name)
        assert dict(result.trace_fingerprints) == expected["traces"]
        assert result.outcome_digest() == expected["outcome"]
        assert ("dispatch", 1) in seen

    @staticmethod
    def _contended_world(seen=None):
        """Four threads on one jittery core: ready queues of 1-4
        threads, mutex waiters and condition-variable notifies."""
        from repro.sim import (
            Acquire,
            Compute,
            Notify,
            Release,
            Sleep,
            Wait,
            WaitUntil,
            World,
        )
        from repro.sim.platform import PlatformConfig
        from repro.time import MS, US

        streams: list = []
        with stream_hooks(_scheduler_hook(streams, seen)):
            world = World(11)
            platform = world.add_platform(
                "p",
                PlatformConfig(
                    num_cores=1,
                    dispatch_jitter_ns=40 * US,
                    timer_jitter_ns=30 * US,
                ),
            )
        mutex = platform.mutex()
        cv = platform.condvar()
        log = []

        def worker(index):
            for round_ in range(6):
                yield Compute((index + 1) * 100 * US)
                yield Acquire(mutex)
                log.append((world.sim.now, index, round_, "locked"))
                if index % 2:
                    result = yield WaitUntil(
                        cv, mutex, platform.local_now() + (index + 1) * MS
                    )
                    log.append((world.sim.now, index, result))
                else:
                    yield Notify(cv)
                yield Release(mutex)
                yield Sleep((4 - index) * 150 * US)
            result = yield WaitUntil(cv, None, platform.local_now() + 2 * MS)
            log.append((world.sim.now, index, result))

        def kicker():
            for _ in range(8):
                yield Sleep(700 * US)
                platform.scheduler.external_notify(cv)
            yield Wait(cv, None)

        for index in range(4):
            platform.spawn(f"w{index}", worker(index))
        platform.spawn("kicker", kicker())
        world.sim.post_at(
            20 * MS, lambda: platform.scheduler.external_notify_all(cv)
        )
        world.run_for(30 * MS)
        (stream,) = streams
        return log, world.sim.events_processed, world.sim.now, stream.getstate()

    def test_ready_queues_of_one_to_four_threads(self):
        seen: set = set()
        general = self._contended_world(seen)
        assert {("dispatch", size) for size in (1, 2, 3, 4)} <= seen
        assert {("mutex", 2), ("notify", 1)} <= seen
        assert {("jitter", "dispatch"), ("jitter", "timer")} <= seen
        assert self._contended_world() == general
