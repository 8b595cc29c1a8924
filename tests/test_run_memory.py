"""A finished run releases its memory.

Every app runner ends with :meth:`RunLedger.result`, which fingerprints
each reactor environment's logical trace, hands the trace off
(:meth:`Environment.close`) and closes the world (:meth:`World.close`).
With the cyclic collector off, the traces must then be freed by
reference counting alone as soon as the runner returns, the world's
thread generators must be closed and its event queue empty, while
everything a caller still holds (a trace, the world's counters) reads
as before.  While a DEAR run lasts, its compact traces keep its memory
growth per frame small.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc
import weakref
from dataclasses import replace

import pytest

from repro.apps import registry
from repro.apps.lib import MixedCriticalityScenario, PipelineErrors
from repro.apps.lib.common import RunLedger
from repro.errors import SimulationError
from repro.reactors.telemetry import Trace
from repro.sim import World
from repro.time.tag import Tag

FRAMES = 6
SEED = 3

COMBOS = [
    (app.name, variant) for app in registry.apps() for variant in app.variants()
]

EMPTY_FINGERPRINT = hashlib.sha256().hexdigest()


class _Capture:
    """Records every World and Trace built while installed."""

    def __init__(self, monkeypatch, strong_traces: bool = False) -> None:
        self.worlds: list[World] = []
        self.traces: list = []
        #: len(trace) at each fingerprint() call.
        self.fingerprinted_rows: list[int] = []
        keep = (lambda t: t) if strong_traces else weakref.ref
        world_init, trace_init = World.__init__, Trace.__init__
        fingerprint = Trace.fingerprint

        def init_world(world, *args, **kwargs):
            world_init(world, *args, **kwargs)
            self.worlds.append(world)

        def init_trace(trace, *args, **kwargs):
            trace_init(trace, *args, **kwargs)
            self.traces.append(keep(trace))

        def counted_fingerprint(trace):
            self.fingerprinted_rows.append(len(trace))
            return fingerprint(trace)

        monkeypatch.setattr(World, "__init__", init_world)
        monkeypatch.setattr(Trace, "__init__", init_trace)
        monkeypatch.setattr(Trace, "fingerprint", counted_fingerprint)


def _run(app: str, variant: str):
    definition = registry.get(app)
    scenario = replace(definition.default_scenario(), n_frames=FRAMES)
    return definition.runner(variant)(SEED, scenario)


@pytest.fixture
def gc_off():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.mark.parametrize("app,variant", COMBOS)
def test_a_finished_run_is_released(monkeypatch, gc_off, app, variant):
    capture = _Capture(monkeypatch)
    result = _run(app, variant)
    if variant == "det":
        assert capture.traces, "a DEAR run builds reactor environments"
        assert sum(capture.fingerprinted_rows) > 0
    # Freed by reference counting: the collector is off.
    assert [ref for ref in capture.traces if ref() is not None] == []
    assert len(result.trace_fingerprints) == len(capture.traces)
    (world,) = capture.worlds
    threads = [
        thread
        for platform in world.platforms.values()
        for thread in platform.scheduler.threads
    ]
    assert threads
    assert [t.name for t in threads if t.generator.gi_frame is not None] == []
    assert [t.name for t in threads if t.resume_cb or t.wake_cb] == []
    assert world.sim.pending_count() == 0


@pytest.mark.parametrize("app,variant", [("brake", "det"), ("fusion", "det")])
def test_a_held_trace_keeps_its_rows(monkeypatch, app, variant):
    capture = _Capture(monkeypatch, strong_traces=True)
    result = _run(app, variant)
    traces = capture.traces
    assert [len(t.records) for t in traces] == capture.fingerprinted_rows
    assert all(len(t) > 0 for t in traces)
    assert sorted(t.fingerprint() for t in traces) == sorted(
        result.trace_fingerprints.values()
    )


@pytest.mark.parametrize("app,variant", COMBOS)
def test_closing_leaves_the_counters_alone(monkeypatch, app, variant):
    def counters():
        capture = _Capture(monkeypatch)
        result = _run(app, variant)
        (world,) = capture.worlds
        network = world.network
        return (
            result.outcome_digest(),
            world.sim.events_processed,
            world.now,
            network.frames_sent,
            network.total_bytes,
            world.fault_summary,
        )

    closed = counters()
    monkeypatch.setattr(World, "close", lambda world: None)
    assert counters() == closed


def _ledger_with_rows() -> tuple[RunLedger, Trace]:
    ledger = RunLedger(World(1), MixedCriticalityScenario(n_frames=2), PipelineErrors())
    env = ledger.environment("env")
    for microstep in range(3):
        env.trace.reaction(Tag(10, microstep), "r")
    return ledger, env.trace


def test_environment_close_hands_the_trace_off():
    ledger, trace = _ledger_with_rows()
    (env,) = ledger._environments
    assert env.close() is trace
    assert env.trace is None
    assert len(trace.records) == 3


def test_a_second_result_is_the_first():
    ledger, trace = _ledger_with_rows()
    first = ledger.result()
    assert first.trace_fingerprints == {"env": trace.fingerprint()}
    assert first.trace_fingerprints["env"] != EMPTY_FINGERPRINT
    assert ledger.result() is first


def test_a_closed_world_does_not_run():
    ledger, _trace = _ledger_with_rows()
    world = ledger.world
    world.sim.post_after(5, lambda: None)
    ledger.result()
    assert world.sim.pending_count() == 0
    with pytest.raises(SimulationError):
        world.run_for(10)
    with pytest.raises(SimulationError):
        world.run_until(world.now + 10)


def test_a_dear_run_grows_by_at_most_3_kb_per_frame():
    """The tracemalloc peak of a DEAR brake run, whose traces keep every
    row while it runs, grows by at most 3 KB per frame (≈7.5 KB when each
    row was its own tuple and each closure port its own rendering)."""
    definition = registry.get("brake")
    runner = definition.runner("det")

    def peak(frames: int) -> int:
        scenario = replace(definition.default_scenario(), n_frames=frames)
        tracemalloc.start()
        try:
            runner(SEED, scenario)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(FRAMES)  # lazily loaded code and caches, before measuring
    assert (peak(400) - peak(100)) / 300 <= 3 * 1024
