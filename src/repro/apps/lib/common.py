"""Shared plumbing of the scenario library (and of the brake app).

Every library app declares its deployment in a world recipe — its ECUs
(:func:`library_hosts`), its
:class:`~repro.network.topology.TopologySpec` fabric and its default
faults — which :meth:`repro.apps.AppDefinition.build_world` turns into
a world.  Results come back in the same
:class:`~repro.apps.brake.instrumentation.BrakeRunResult` shape the
whole harness (sweeps, obs drivers, CLI reports, ``outcome_digest``)
already consumes.  The periodic-callback noise of both brake and the
library (:func:`random_offset`, :func:`spike`) lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import context as obs_context
from repro.sim import World
from repro.sim.platform import MINNOWBOARD, PlatformConfig
from repro.time.clock import ClockModel

__all__ = [
    "SinkCommand",
    "PipelineErrors",
    "library_hosts",
    "begin_flow",
    "deliver_flow",
    "drop_flow",
    "random_offset",
    "spike",
]


#: Calm but parallel: MINNOWBOARD's core count with every jitter source
#: removed.  A single calm core would serialize subscriber callbacks
#: behind running reactions, making physical-action tags depend on
#: (seed-sampled) execution times — exactly what ``deterministic_inputs``
#: must avoid.  Dispatch is FIFO so that two tasks waking at the same
#: instant (e.g. an SD cyclic offer colliding with a publish tick) hit
#: the wire in seed-independent order.
CALM_QUAD = PlatformConfig(
    num_cores=MINNOWBOARD.num_cores,
    clock=ClockModel.perfect(),
    dispatch_jitter_ns=0,
    timer_jitter_ns=0,
    deterministic_dispatch=True,
)


def library_hosts(scenario, *names: str) -> list[tuple[str, PlatformConfig]]:
    """Recipe hosts: every ECU of a library app runs the same board,
    calm (:data:`CALM_QUAD`) when ``deterministic_inputs`` holds."""
    config = CALM_QUAD if scenario.deterministic_inputs else MINNOWBOARD
    return [(name, config) for name in names]


@dataclass(frozen=True)
class SinkCommand:
    """A library pipeline's per-sequence output.

    Field-compatible with the brake command as far as
    :meth:`BrakeRunResult.outcome_digest` reads it
    (``frame_seq`` / ``brake`` / ``intensity``): ``brake`` doubles as
    "the sink acted on this sample", ``intensity`` as its scalar output.
    """

    frame_seq: int
    brake: bool
    intensity: float


#: Library counterpart of the brake ``ERROR_TYPES`` legend.
LIB_ERROR_TYPES = (
    "dropped_input",
    "mismatched_inputs",
    "stale_publishes",
)


@dataclass
class PipelineErrors:
    """Error counters of a library pipeline (duck-types ``ErrorCounters``)."""

    #: Unread items overwritten in one-slot input buffers.
    dropped_input: int = 0
    #: Fan-in groups discarded because sequences were misaligned.
    mismatched_inputs: int = 0
    #: Samples published while no subscriber was live (failover gaps).
    stale_publishes: int = 0

    def total(self) -> int:
        return self.dropped_input + self.mismatched_inputs + self.stale_publishes

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in LIB_ERROR_TYPES}


def begin_flow(seq: int, now: int):
    """Open flow *seq* (or re-enter it if another producer opened it).

    Returns the flow registry while tracing is active, else ``None``;
    callers pair this with ``flows.restore_current(None)`` after the
    send, exactly like the brake camera.
    """
    o = obs_context.ACTIVE
    flows = o.flows if o.enabled else None
    if flows is None:
        return None
    if flows.known(seq):
        # A second producer of the same sequence (failover overlap):
        # keep the original record, just make the flow current so the
        # send's hops land on it.
        flows.swap_current(seq)
    else:
        flows.begin(seq, now)
    return flows


def deliver_flow(seq: int, now: int) -> None:
    """Mark flow *seq* delivered at the pipeline sink."""
    o = obs_context.ACTIVE
    if o.enabled and o.flows is not None:
        o.flows.deliver(seq, now)


def drop_flow(seq: int, layer: str, cause: str, now: int) -> None:
    """Attribute flow *seq*'s loss to ``(layer, cause)``."""
    from repro.obs.flows import attribute_drop

    o = obs_context.ACTIVE
    if o.enabled:
        attribute_drop(o, layer, cause, now, flow_id=seq)


def random_offset(world: World, name: str, period_ns: int) -> int:
    """Deterministic per-task phase within the period (own RNG stream)."""
    return world.rng.stream(f"offset.{name}").randint(0, period_ns - 1)


def spike(world: World, name: str, scenario) -> int:
    """Occasional extra latency of a periodic callback (OS hiccup).

    The nanoseconds this activation is late, drawn from the scenario's
    ``callback_spike_probability``/``callback_spike_max_ns`` model
    (usually 0).
    """
    rng = world.rng.stream(f"spike.{name}")
    probability = scenario.callback_spike_probability
    if probability > 0.0 and rng.random() < probability:
        return rng.randint(0, scenario.callback_spike_max_ns)
    return 0
