"""Property tests for the snapshot/fork execution engine.

The contract under test: forking a copy-on-write holder captured at
decision ``k`` and running to the end is **byte-identical** to an
uninterrupted run making the same decisions — same per-environment
``Trace.fingerprint()``, same ``BrakeRunResult.outcome_digest()`` — for
both brake variants, across seeds, under replayed PCT-style preemption
schedules and with an active fault plan.  Snapshots may only ever make
runs faster, never different.
"""

from __future__ import annotations

import os

import pytest

from repro.apps.brake.det import run_det_brake_assistant
from repro.apps.brake.nondet import run_nondet_brake_assistant
from repro.explore import Explorer, PctStrategy, calibration_scenario, shrink_schedule
from repro.explore.decisions import (
    DecisionTrace,
    InterventionSchedule,
    PreemptionPoint,
)
from repro.faults import FaultPlan
from repro.harness.sweep import SweepRunner
from repro.sim.rng import stream_hooks
from repro.snapshot import (
    SNAPSHOTS_SUPPORTED,
    MembershipDecisions,
    RemoteRunError,
    ScheduleDecisions,
    SnapshotEngine,
    SnapshotStats,
    SnapshotStore,
    context_key,
)

pytestmark = pytest.mark.skipif(
    not SNAPSHOTS_SUPPORTED, reason="needs os.fork + SEQPACKET + fd passing"
)

N_FRAMES = 5
PLAN = FaultPlan.camera_faults(seed=1, drop=0.3, label="snapshot-test")

EXPERIMENTS = {
    "det": run_det_brake_assistant,
    "nondet": run_nondet_brake_assistant,
}


def _scenario(variant: str):
    return calibration_scenario(
        N_FRAMES, deterministic_camera=(variant == "det")
    )


def _schedule(seed: int) -> InterventionSchedule:
    """A PCT-style schedule: two preemption delays at fixed sites."""
    return InterventionSchedule(
        base_seed=seed,
        preemptions=(
            PreemptionPoint(site=7, delay_ns=2_000_000),
            PreemptionPoint(site=19, delay_ns=3_000_000),
        ),
    )


def _run_scratch(variant: str, schedule: InterventionSchedule, plan=None):
    """The uninterrupted reference run (no engine, no forks)."""
    controller = schedule.controller()
    with stream_hooks(controller):
        result = EXPERIMENTS[variant](
            schedule.base_seed, _scenario(variant), fault_plan=plan
        )
    return dict(result.trace_fingerprints), result.outcome_digest()


def _engine_run(engine, variant: str, schedule: InterventionSchedule, plan=None):
    """The same run routed through the snapshot engine."""

    def run(checkpointer):
        controller = schedule.controller(checkpointer=checkpointer)
        with stream_hooks(controller):
            result = EXPERIMENTS[variant](
                schedule.base_seed, _scenario(variant), fault_plan=plan
            )
        return dict(result.trace_fingerprints), result.outcome_digest()

    context = context_key("test", variant, schedule.base_seed, plan is not None)
    return engine.execute(context, ScheduleDecisions(schedule), run)


# ---------------------------------------------------------------------------
# Fork equivalence.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("variant", ["det", "nondet"])
def test_fork_equivalence(variant: str, seed: int):
    """Cold capture and holder fork both reproduce the scratch run
    byte-for-byte — PCT schedule and fault plan active throughout."""
    schedule = _schedule(seed)
    scratch = _run_scratch(variant, schedule, plan=PLAN)
    with SnapshotEngine() as engine:
        cold = _engine_run(engine, variant, schedule, plan=PLAN)
        forked = _engine_run(engine, variant, schedule, plan=PLAN)
        assert engine.stats.misses == 1
        assert engine.stats.fork_hits == 1
    assert cold == scratch
    assert forked == scratch


def test_fork_equivalence_without_faults():
    schedule = _schedule(0)
    scratch = _run_scratch("det", schedule)
    with SnapshotEngine() as engine:
        assert _engine_run(engine, "det", schedule) == scratch
        assert _engine_run(engine, "det", schedule) == scratch
        assert engine.stats.fork_hits == 1


def test_shared_prefix_fork_diverging_tail():
    """A sibling schedule sharing the first point forks from the shared
    holder and still matches its own scratch run."""
    base = _schedule(0)
    sibling = base.with_points(
        [base.preemptions[0], PreemptionPoint(site=31, delay_ns=5_000_000)]
    )
    with SnapshotEngine() as engine:
        _engine_run(engine, "nondet", base)
        out = _engine_run(engine, "nondet", sibling)
        assert engine.stats.fork_hits == 1
        assert engine.stats.reused_decisions > 0
    assert out == _run_scratch("nondet", sibling)


def test_double_fork_same_holder():
    """One holder serves many forks; every continuation is identical."""
    schedule = _schedule(2)
    scratch = _run_scratch("det", schedule)
    with SnapshotEngine() as engine:
        _engine_run(engine, "det", schedule)
        first = _engine_run(engine, "det", schedule)
        second = _engine_run(engine, "det", schedule)
        assert engine.stats.fork_hits == 2
    assert first == scratch
    assert second == scratch


def test_snapshot_of_a_fork():
    """Holders captured *by a continuation* serve later, deeper forks."""
    a = InterventionSchedule(
        base_seed=0, preemptions=(PreemptionPoint(site=7, delay_ns=2_000_000),)
    )
    b = a.with_points(
        list(a.preemptions) + [PreemptionPoint(site=19, delay_ns=3_000_000)]
    )
    c = b.with_points(
        list(b.preemptions) + [PreemptionPoint(site=31, delay_ns=4_000_000)]
    )
    with SnapshotEngine() as engine:
        _engine_run(engine, "det", a)  # cold; captures at site 7
        _engine_run(engine, "det", b)  # forks @7; continuation captures @19
        before = engine.stats.reused_decisions
        out = _engine_run(engine, "det", c)  # must fork from the @19 holder
        assert engine.stats.fork_hits == 2
        assert engine.stats.reused_decisions - before == 19
    assert out == _run_scratch("det", c)


def test_mutation_isolation():
    """Forked continuations never leak state back into their holder."""
    schedule = _schedule(1)
    scratch = _run_scratch("det", schedule)
    mutant = schedule.with_points(
        [schedule.preemptions[0], PreemptionPoint(site=19, delay_ns=9_000_000)]
    )
    with SnapshotEngine() as engine:
        assert _engine_run(engine, "det", schedule) == scratch
        _engine_run(engine, "det", mutant)  # forks and diverges
        # The original suffix must still come out of the shared holder
        # untouched by the mutant continuation's run.
        assert _engine_run(engine, "det", schedule) == scratch
        assert engine.stats.fork_hits == 2


# ---------------------------------------------------------------------------
# Store behaviour.
# ---------------------------------------------------------------------------


def test_lru_eviction_keeps_results_correct():
    schedule = _schedule(3)
    scratch = _run_scratch("det", schedule)
    store = SnapshotStore(capacity=1)
    with SnapshotEngine(store=store) as engine:
        assert _engine_run(engine, "det", schedule) == scratch
        assert len(store) == 1  # two captures, one survivor
        assert engine.stats.captures == 2
        assert engine.stats.evictions >= 1
        # The surviving (deepest) holder still forks correctly.
        assert _engine_run(engine, "det", schedule) == scratch
        assert engine.stats.fork_hits == 1


def test_disabled_engine_runs_inline(monkeypatch):
    # A platform without fork support: every execution runs in-process.
    monkeypatch.setattr("repro.snapshot.ipc.SUPPORTED", False)
    schedule = _schedule(0)
    with SnapshotEngine() as engine:
        assert not engine.supported
        out = _engine_run(engine, "det", schedule)
        assert engine.stats.inline == 1
        assert engine.stats.captures == 0
    assert out == _run_scratch("det", schedule)


def test_dead_runner_falls_back_to_an_inline_run():
    # The cold runner dies before writing a result: execute re-runs the
    # experiment in this process, with no checkpointer, and counts it.
    parent = os.getpid()
    received = []

    def run(checkpointer):
        if os.getpid() != parent:
            os._exit(3)
        received.append(checkpointer)
        return "inline result"

    with SnapshotEngine() as engine:
        decisions = ScheduleDecisions(_schedule(0))
        assert engine.execute("ctx-crash", decisions, run) == "inline result"
        assert received == [None]
        assert engine.stats.failures == 1
        assert engine.stats.misses == 1
        assert engine.stats.inline == 0


def test_error_inside_fork_raises_remote_run_error():
    with SnapshotEngine() as engine:

        def run(_checkpointer):
            raise ValueError("boom in the child")

        decisions = ScheduleDecisions(_schedule(0))
        with pytest.raises(RemoteRunError, match="boom in the child"):
            engine.execute("ctx-err", decisions, run)


def test_stats_document_holds_counts_only():
    # Host timings stay on the object; documents embed the counts, so
    # two runs of one command write the same bytes.
    stats = SnapshotStats(fork_hits=2, captures=1, capture_ns_total=5, fork_ns_total=9)
    assert (stats.capture_ns_mean, stats.fork_ns_mean) == (5.0, 4.5)
    document = stats.as_dict()
    assert not [key for key in document if "ns" in key.split("_")]
    assert document["fork_hits"] == 2 and document["captures"] == 1


def test_explore_no_cache_writes_no_file(tmp_path, monkeypatch):
    # Holders are process-resident: a snapshot-assisted explore leaves
    # nothing on disk, and --no-cache keeps the result store away too.
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    code = main(
        ["explore", "--budget", "2", "--frames", "20", "--no-cache",
         "--workers", "1"]
    )
    assert code == 0
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# ddmin probes routed through the engine.
# ---------------------------------------------------------------------------


def test_shrink_schedule_through_snapshots():
    """Snapshot-routed ddmin shrinks to the same minimal schedule (and
    the same probe history) as the plain from-scratch path."""
    points = [
        PreemptionPoint(site=site, delay_ns=2_000_000)
        for site in (7, 13, 19, 31)
    ]
    schedule = InterventionSchedule(base_seed=0, preemptions=tuple(points))
    needed = {13, 31}

    def predicate(outcome) -> bool:
        return needed <= {p.site for p in outcome.schedule.preemptions}

    def shrink(engine):
        explorer = Explorer(
            scenario=_scenario("nondet"),
            base_seed=0,
            strategy=None,
            snapshots=engine,
        )
        return shrink_schedule(explorer, schedule, predicate=predicate)

    plain = shrink(None)
    with SnapshotEngine() as engine:
        forked = shrink(engine)
        assert engine.stats.fork_hits > 0
    assert {p.site for p in forked.minimal.preemptions} == needed
    assert forked.history == plain.history
    assert forked.trials == plain.trials
    # Thread names come from the last reproducing probe, which ran the
    # minimal point set: they match a fresh run of the minimal schedule.
    explorer = Explorer(scenario=_scenario("nondet"), base_seed=0)
    _result, controller = explorer.run_schedule(forked.minimal)
    assert _points(forked.minimal) == [
        (p.site, p.delay_ns, p.thread) for p in controller.applied
    ]
    assert _points(forked.minimal) == _points(plain.minimal)


def _points(schedule) -> list[tuple]:
    """Points with their thread names (``PreemptionPoint`` equality
    ignores ``thread``)."""
    return [(p.site, p.delay_ns, p.thread) for p in schedule.preemptions]


def test_explore_through_snapshots_matches_pooled():
    """The forked explore loop finds the same schedule as the pooled
    one and runs exactly the executions it reports as used."""

    def explore(engine):
        return Explorer(
            scenario=calibration_scenario(50),
            base_seed=0,
            strategy=PctStrategy(),
            sweep=SweepRunner(workers=1, use_cache=False),
            snapshots=engine,
        ).explore(budget=8)

    pooled = explore(None)
    with SnapshotEngine() as engine:
        forked = explore(engine)
        stats = engine.stats
        assert stats.fork_hits + stats.misses + stats.inline == forked.executions_used
    assert pooled.found is not None and forked.found is not None
    assert forked.found.index == pooled.found.index
    assert forked.executions_used == pooled.executions_used
    assert forked.found.errors == pooled.found.errors
    assert _points(forked.found.schedule) == _points(pooled.found.schedule)


def test_shrink_fault_trace_through_snapshots():
    """Snapshot-routed fault ddmin finds the same decisive fault subset
    as the plain path, with forked probes doing the work."""
    from repro.faults import replay, shrink_fault_trace

    scenario = _scenario("det")
    seed = 0
    live = run_det_brake_assistant(seed, scenario, fault_plan=PLAN)
    trace = DecisionTrace.from_dict(live.fault_summary["trace"])
    assert trace.records, "fault plan fired nothing; test scenario too small"

    from dataclasses import replace

    with replay(replace(trace, records=[])):
        clean = run_det_brake_assistant(
            seed, scenario, fault_plan=PLAN
        ).outcome_digest()
    assert clean != live.outcome_digest()

    def failure(candidate) -> bool:
        digest = run_det_brake_assistant(
            seed, scenario, fault_plan=PLAN
        ).outcome_digest()
        return digest != clean

    def keys(result):
        return [
            (r.stream, r.kind, r.name, r.bound) for r in result.minimal.records
        ]

    plain = shrink_fault_trace(PLAN, trace, failure)
    with SnapshotEngine() as engine:
        forked = shrink_fault_trace(PLAN, trace, failure, snapshots=engine)
        assert engine.stats.fork_hits > 0
    assert keys(forked) == keys(plain)
    assert forked.history == plain.history


def test_membership_decisions_prefix_digest():
    a = MembershipDecisions((1, 0, 1, 1))
    b = MembershipDecisions((1, 0, 0, 1))
    assert a.prefix_digest(2) == b.prefix_digest(2)
    assert a.prefix_digest(3) != b.prefix_digest(3)
    assert a.span() == 4
