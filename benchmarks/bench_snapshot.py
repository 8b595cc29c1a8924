"""SNAPSHOT — copy-on-write forks must beat from-scratch replay ≥ 3×.

The campaign mirrors how explore/ddmin actually spend their budget: N
PCT-style schedules sharing an identical 80% preemption prefix and
diverging only in one tail point.  From scratch every run costs O(T);
through the snapshot engine run 0 captures holders along the prefix and
every later run forks the deepest shared-prefix holder, paying only its
own suffix — O(ΔT).  Recorded to ``BENCH_snapshot.json``:

* ``capture_mean_ns`` / ``fork_mean_ns`` — raw engine latencies;
* ``scratch_wall_s`` vs ``forked_wall_s`` over the *same* N-1 warm
  schedules, timed alternately per schedule (the first side swaps
  every schedule) and summed per side, and their
  ``forked_runtime_over_scratch`` ratio (the gated trajectory: if
  forks stop paying off, this grows);
* ``speedup_net_of_fork_ge_3x`` — the wall-clock claim, asserted:
  scratch time over forked time *net of the measured fork cost*
  (``runs - 1`` forks at ``fork_mean_ns``).  Each warm run pays one
  OS fork, a fixed cost no simulator speedup shrinks, so the raw
  ``speedup`` (printed; ``forked_runtime_over_scratch`` is its
  inverse) erodes on hosts with slow ``fork``; with free forks the
  bound is exactly the raw ``speedup >= 3``;
* ``warm_replay_ratio`` — the fraction of the warm runs' decision span
  they re-executed rather than forked (``engine.stats``).  It depends
  only on the schedules and the engine, not on the host;
* a ddmin shrink pass routed through the engine: probe count, fork
  hits and the fraction of decision-span actually re-executed
  (``shrink_replay_ratio`` — the satellite fix: probes no longer
  re-run the full prefix).

Fork equivalence itself is asserted per run (forked summaries must
equal scratch summaries bit-for-bit) — a fast wrong answer is not a
benchmark result.
"""

import time

import pytest

from repro.apps.brake.nondet import run_nondet_brake_assistant
from repro.explore import calibration_scenario, shrink_schedule
from repro.explore.decisions import InterventionSchedule, PreemptionPoint
from repro.explore.explorer import Explorer
from repro.harness import env_int
from repro.sim.rng import stream_hooks
from repro.snapshot import SNAPSHOTS_SUPPORTED, ScheduleDecisions, SnapshotEngine
from repro.time import MS


def _run_scratch(scenario, schedule):
    controller = schedule.controller()
    with stream_hooks(controller):
        result = run_nondet_brake_assistant(schedule.base_seed, scenario)
    return result.outcome_digest()


def test_snapshot(show, bench_json):
    if not SNAPSHOTS_SUPPORTED:
        pytest.skip("snapshot engine needs os.fork + SEQPACKET")

    frames = env_int("REPRO_SNAP_FRAMES", 150)
    runs = env_int("REPRO_SNAP_RUNS", 12)
    scenario = calibration_scenario(frames)

    # Horizon calibration: one plain baseline run.
    baseline = InterventionSchedule(base_seed=0)
    controller = baseline.controller()
    with stream_hooks(controller):
        run_nondet_brake_assistant(0, scenario)
    horizon = controller._site

    # The campaign: an identical 3-point prefix ending at 0.8·horizon,
    # plus one distinct tail point per run in (0.8, 0.95)·horizon.
    shared = tuple(
        PreemptionPoint(site=int(horizon * frac), delay_ns=2 * MS)
        for frac in (0.2, 0.5, 0.8)
    )
    step = max(1, int(horizon * 0.01))
    schedules = [
        InterventionSchedule(
            base_seed=0,
            preemptions=shared
            + (
                PreemptionPoint(
                    site=int(horizon * 0.82) + index * step, delay_ns=3 * MS
                ),
            ),
        )
        for index in range(runs)
    ]

    engine = SnapshotEngine()

    def forked(schedule):
        def run(checkpointer):
            ctl = schedule.controller(checkpointer=checkpointer)
            with stream_hooks(ctl):
                result = run_nondet_brake_assistant(schedule.base_seed, scenario)
            return result.outcome_digest()

        return engine.execute("bench", ScheduleDecisions(schedule), run)

    try:
        # Run 0 is the cold capture pass; warm runs 1..N-1 are timed.
        digest0 = forked(schedules[0])
        assert digest0 == _run_scratch(scenario, schedules[0])
        capture_ns_mean = engine.stats.capture_ns_mean
        cold_total = engine.stats.total_decisions
        cold_reused = engine.stats.reused_decisions

        # Each warm schedule runs forked and from scratch back to back,
        # alternating which side goes first, and each side's times are
        # summed: a burst of host load lands on both sides alike.
        def scratch(schedule):
            return _run_scratch(scenario, schedule)

        digests = {forked: [], scratch: []}
        wall_s = {forked: 0.0, scratch: 0.0}
        for index, schedule in enumerate(schedules[1:]):
            for side in (forked, scratch) if index % 2 == 0 else (scratch, forked):
                started = time.perf_counter()
                digests[side].append(side(schedule))
                wall_s[side] += time.perf_counter() - started
        forked_digests, scratch_digests = digests[forked], digests[scratch]
        forked_s, scratch_s = wall_s[forked], wall_s[scratch]
        fork_hits = engine.stats.fork_hits
        warm_span = engine.stats.total_decisions - cold_total
        warm_reused = engine.stats.reused_decisions - cold_reused
        warm_replay_ratio = (warm_span - warm_reused) / warm_span
        fork_ns_mean = engine.stats.fork_ns_mean

        assert forked_digests == scratch_digests  # equivalence before speed
        assert fork_hits == runs - 1  # every warm run found a holder

        # The satellite-6 fix, measured: ddmin probes fork instead of
        # re-running the prefix.  Synthetic, deterministic predicate —
        # the failure "needs" the 2nd and 4th points.
        needed = {shared[1].site, schedules[0].preemptions[-1].site}
        explorer = Explorer(
            scenario=scenario, base_seed=0, strategy=None, snapshots=engine
        )
        before_total = engine.stats.total_decisions
        before_reused = engine.stats.reused_decisions
        before_hits = engine.stats.fork_hits
        shrunk = shrink_schedule(
            explorer,
            schedules[0],
            predicate=lambda o: needed
            <= {p.site for p in o.schedule.preemptions},
        )
        shrink_fork_hits = engine.stats.fork_hits - before_hits
        shrink_span = engine.stats.total_decisions - before_total
        shrink_reused = engine.stats.reused_decisions - before_reused
        shrink_replay_ratio = (
            (shrink_span - shrink_reused) / shrink_span if shrink_span else 1.0
        )
    finally:
        engine.close()

    speedup = scratch_s / forked_s if forked_s else float("inf")
    net_forked_s = forked_s - (runs - 1) * fork_ns_mean / 1e9
    net_speedup = scratch_s / net_forked_s if net_forked_s > 0 else float("inf")
    show(
        f"snapshot: {runs} runs x {frames} frames, horizon {horizon}; "
        f"capture {capture_ns_mean / 1e6:.1f} ms, fork {fork_ns_mean / 1e6:.1f} ms; "
        f"warm scratch {scratch_s:.2f}s vs forked {forked_s:.2f}s "
        f"({speedup:.1f}x, {net_speedup:.1f}x net of forks); "
        f"shrink {shrunk.trials} probes, "
        f"{shrink_fork_hits} forked, replay ratio {shrink_replay_ratio:.2f}"
    )
    bench_json.record(
        frames=frames,
        runs=runs,
        horizon=horizon,
        capture_mean_ns=round(capture_ns_mean),
        fork_mean_ns=round(fork_ns_mean),
        scratch_wall_s=round(scratch_s, 3),
        forked_wall_s=round(forked_s, 3),
        forked_runtime_over_scratch=round(forked_s / scratch_s, 4),
        forked_runs_per_s=round((runs - 1) / forked_s, 2),
        scratch_runs_per_s=round((runs - 1) / scratch_s, 2),
        fork_hits=fork_hits,
        speedup_net_of_fork_ge_3x=bool(net_speedup >= 3.0),
        shrink_trials=shrunk.trials,
        shrink_fork_hits=shrink_fork_hits,
        shrink_replay_ratio=round(shrink_replay_ratio, 4),
        shrink_reuse_ok=bool(shrink_reused > 0),
        warm_replay_ratio=round(warm_replay_ratio, 4),
    )
    # The acceptance claims, asserted as stable facts.
    assert net_speedup >= 3.0
    # Host-independent: every warm run forks at or past the shared 80%
    # prefix (a sibling's tail holder when its capture registered), so
    # it re-executes under a tenth of its decision span.
    assert warm_replay_ratio < 0.1
    assert {p.site for p in shrunk.minimal.preemptions} == needed
    assert shrink_fork_hits > 0
    assert shrink_replay_ratio < 1.0
