"""Bare sim-kernel event-throughput benchmark (the PR6 overhaul gate).

Measures events/s of :class:`repro.sim.core.Simulator` across the event
shapes the runtime layers actually generate:

* ``oneshot`` — N cancellable ``timer_at()`` one-shots at distinct
  timestamps, all armed before the run, so the freelist is empty and
  each one allocates its handle (the pre-overhaul benchmark's shape of
  fresh cancellable handles, kept for trajectory continuity);
* ``burst`` — same-timestamp fan-out via ``post_at()`` (reaction
  batches, ``post_after(0)`` trampolines) — the shape the bucketed
  dispatch loop is built for;
* ``chain`` — each callback schedules the next (``post_after``), the
  CPU-scheduler dispatch/compute pattern;
* ``timer`` — re-arming ``timer_at()`` wakeups through the pooled
  handle freelist (sleepers, condvar timeouts).

Worlds run through ``World.run_for``, that is ``run(until=...)``, so
the ``until`` shape drives the chain in ``run(until=)`` slices and
records ``until_events_per_s`` beside the four ``run()`` shapes (it is
not part of the mixed headline, whose composition stays fixed).

Scale is ``REPRO_KERNEL_EVENTS`` per shape (default 20k: CI scale; the
nightly perf workflow runs 200k).  The CI *kernel-throughput* job sets
``REPRO_KERNEL_ENFORCE_FLOOR=1``, asserting the headline and burst
events/s against the ``FLOOR_*`` constants below — absolute lower
bounds chosen far below a healthy run so only a real regression (not
machine noise) trips them.
"""

import os
import time

from repro.sim import Simulator

#: Events per shape; CI default keeps the whole file under a few seconds.
SCALE = int(os.environ.get("REPRO_KERNEL_EVENTS", "20000"))

#: Same-time fan-out width for the burst shape.
BURST_WIDTH = 100

#: Absolute lower bounds for the floor gate (events/s).  Chosen ~4x
#: below a healthy dev-machine run so a slow CI runner never trips them
#: while a genuine regression (losing the bucketed dispatch or the
#: handle pool) still does.  Raise them alongside real kernel wins.
FLOOR_EVENTS_PER_S = 500_000
FLOOR_BURST_EVENTS_PER_S = 1_500_000

#: ``run(until=)`` slices the until shape's chain is driven in.
UNTIL_SLICES = 10


def _shape_oneshot(n: int) -> int:
    sim = Simulator()
    callback = lambda: None  # noqa: E731
    for index in range(n):
        sim.timer_at(index, callback)
    sim.run()
    return sim.events_processed


def _shape_burst(n: int) -> int:
    sim = Simulator()
    callback = lambda: None  # noqa: E731
    for time_index in range(n // BURST_WIDTH):
        for _ in range(BURST_WIDTH):
            sim.post_at(time_index, callback)
    sim.run()
    return sim.events_processed


def _chained(n: int) -> Simulator:
    """A queue of *n* events, each scheduling the next one (``post_after``)."""
    sim = Simulator()
    remaining = n

    def step():
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            sim.post_after(1, step)

    sim.post_after(1, step)
    return sim


def _shape_chain(n: int) -> int:
    sim = _chained(n)
    sim.run()
    return sim.events_processed


def _shape_until(n: int) -> int:
    sim = _chained(n)
    slice_ns = max(1, n // UNTIL_SLICES)
    while sim.events_processed < n:
        sim.run(until=sim.now + slice_ns)
    return sim.events_processed


def _shape_timer(n: int) -> int:
    sim = Simulator()
    remaining = n

    def tick():
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            sim.timer_at(sim.now + 1, tick)

    sim.timer_at(1, tick)
    sim.run()
    return sim.events_processed


SHAPES = {
    "oneshot": _shape_oneshot,
    "burst": _shape_burst,
    "chain": _shape_chain,
    "timer": _shape_timer,
}


def _best_time(shape, n: int, repeats: int = 3) -> float:
    """Best-of-*repeats* wall seconds (min defeats CI noise)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        processed = shape(n)
        elapsed = time.perf_counter() - started
        assert processed == n
        best = min(best, elapsed)
    return best


def test_sim_kernel_event_throughput(benchmark, bench_json):
    """Events/s per shape + a mixed headline, gated against the floor."""
    times = {name: _best_time(shape, SCALE) for name, shape in SHAPES.items()}
    total_events = SCALE * len(SHAPES)
    headline = total_events / sum(times.values())

    def mixed():
        total = 0
        for shape in SHAPES.values():
            total += shape(SCALE)
        return total

    assert benchmark(mixed) == total_events

    burst_rate = SCALE / times["burst"]
    until_time = _best_time(_shape_until, SCALE)
    bench_json.record(
        events=total_events,
        events_per_shape=SCALE,
        events_per_s=round(headline),
        oneshot_events_per_s=round(SCALE / times["oneshot"]),
        burst_events_per_s=round(burst_rate),
        chain_events_per_s=round(SCALE / times["chain"]),
        timer_events_per_s=round(SCALE / times["timer"]),
        until_events_per_s=round(SCALE / until_time),
        floor_events_per_s=FLOOR_EVENTS_PER_S,
        floor_burst_events_per_s=FLOOR_BURST_EVENTS_PER_S,
    ).timing(benchmark)

    if os.environ.get("REPRO_KERNEL_ENFORCE_FLOOR") == "1":
        assert headline >= FLOOR_EVENTS_PER_S, (
            f"kernel throughput regressed: {headline:,.0f} events/s is "
            f"below the floor of {FLOOR_EVENTS_PER_S:,} (see "
            f"benchmarks/baselines/README.md for the gate policy)"
        )
        assert burst_rate >= FLOOR_BURST_EVENTS_PER_S, (
            f"bucketed dispatch regressed: {burst_rate:,.0f} events/s on "
            f"the same-timestamp burst shape is below the floor of "
            f"{FLOOR_BURST_EVENTS_PER_S:,}"
        )
