"""Shared plumbing of the scenario library (and of the brake app).

Every library app declares its deployment in a world recipe — its ECUs
(:func:`library_hosts`), its
:class:`~repro.network.topology.TopologySpec` fabric and its default
faults — which :meth:`repro.apps.AppDefinition.build_world` turns into
a world.  Every runner, brake's included, records its outcome through a
:class:`RunLedger`: send stamps and flows at the source, commands,
latencies and flow deliveries at the sink, the app's own drops, and
the reactor environments and DEAR transactors it builds.  The ledger
returns the run's
:class:`~repro.apps.brake.instrumentation.BrakeRunResult`, the shape
the whole harness (sweeps, observed runs, CLI reports,
``outcome_digest``) consumes.  The periodic callbacks of the stock
variants, with their per-task phase and occasional late start, come
from :func:`periodic_stage`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.dear import LatePolicy, StpConfig, TransactorConfig
from repro.obs import context as obs_context
from repro.obs.flows import CAUSE_NO_SUBSCRIBER, LAYER_SOMEIP, attribute_drop
from repro.sim import Compute, World
from repro.sim.platform import MINNOWBOARD, PlatformConfig
from repro.time.clock import ClockModel

if TYPE_CHECKING:
    from repro.reactors import Environment

__all__ = [
    "SinkCommand",
    "PipelineErrors",
    "RunLedger",
    "library_hosts",
    "periodic_stage",
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


class RunLedger:
    """How one app run measures its outcome: the one place that does.

    A runner creates a ledger beside its world and records through it:

    * :meth:`source` at the input: stamps a sample's send time (the
      first stamp of a sequence wins, so a second producer of the same
      sequence keeps the original) and sends it inside its causal flow;
    * :meth:`publish` for a SOME/IP publish whose loss to an empty
      subscriber table is an error of the app;
    * :meth:`sink` at the output: the command (a later one for the same
      sequence replaces it), its end-to-end latency when the sequence
      was stamped, a miss of the optional *latency_deadline_ns*, and
      the flow's delivery;
    * :meth:`drop` for a loss the app itself decides;
    * :meth:`unsent` after the run, for the readings no source sent;
    * :meth:`environment` and :meth:`transactor` for the reactor
      environments and DEAR transactors whose traces and counters the
      result carries.

    :meth:`result` builds the run's
    :class:`~repro.apps.brake.instrumentation.BrakeRunResult` and ends
    the run: it closes the environments and the world.
    """

    def __init__(self, world: World, scenario, errors, latency_deadline_ns=None):
        self.world = world
        self.scenario = scenario
        self.errors = errors
        self.latency_deadline_ns = latency_deadline_ns
        #: seq -> command produced at the sink.
        self.commands: dict[int, Any] = {}
        #: seq -> end-to-end latency (first send stamp to sink), ns.
        self.latencies: dict[int, int] = {}
        #: Sink latencies over *latency_deadline_ns*.
        self.deadline_misses = 0
        self._sent: dict[int, int] = {}
        self._environments: list[Environment] = []
        self._transactors: list = []
        self._result = None

    def source(self, seq: int, send, *args):
        """Stamp *seq* and call ``send(*args)`` inside its flow.

        While flows are traced, opens flow *seq* (or re-enters it if
        another producer opened it) so the send's hops land on it, and
        leaves no flow current afterwards.  Returns what *send* returns.
        """
        now = self.world.sim.now
        self._sent.setdefault(seq, now)
        o = obs_context.ACTIVE
        flows = None if o is None else o.flows
        if flows is None:
            return send(*args)
        if flows.known(seq):
            flows.swap_current(seq)
        else:
            flows.begin(seq, now)
        sent = send(*args)
        flows.restore_current(None)
        return sent

    def publish(self, skeleton, event: str, data: dict) -> int:
        """``skeleton.send_event(event, data)``; returns the receiver count.

        A publish no subscriber receives (the consumer is still
        discovering the service) counts as a ``stale_publishes`` error
        and is the ``(someip, no-subscriber)`` loss of ``data["seq"]``.
        """
        receivers = skeleton.send_event(event, data)
        if receivers == 0:
            self.errors.stale_publishes += 1
            self.drop(data["seq"], LAYER_SOMEIP, CAUSE_NO_SUBSCRIBER)
        return receivers

    def sink(self, seq: int, command) -> None:
        """Record *command* as the output for *seq* and deliver its flow."""
        now = self.world.sim.now
        self.commands[seq] = command
        sent = self._sent.get(seq)
        if sent is not None:
            latency = now - sent
            self.latencies[seq] = latency
            deadline = self.latency_deadline_ns
            if deadline is not None and latency > deadline:
                self.deadline_misses += 1
        o = obs_context.ACTIVE
        if o is not None and o.flows is not None:
            o.flows.deliver(seq, now)

    def drop(self, seq: int, layer: str, cause: str) -> None:
        """Attribute flow *seq*'s loss to ``(layer, cause)``."""
        o = obs_context.ACTIVE
        if o is not None:
            attribute_drop(o, layer, cause, self.world.sim.now, flow_id=seq)

    def unsent(self, born_ns, layer: str, cause: str) -> None:
        """Attribute every reading no source sent to ``(layer, cause)``.

        Call once the world has run.  While observability is on, each
        seq of the scenario's ``n_frames`` that :meth:`source` never saw
        is lost at ``born_ns(seq)``; with flows traced it becomes a flow
        born then, so the flow report covers every reading.  Nothing is
        stamped or counted in the result.
        """
        o = obs_context.ACTIVE
        if o is None:
            return
        flows = o.flows
        for seq in range(self.scenario.n_frames):
            if seq in self._sent:
                continue
            ts = born_ns(seq)
            if flows is not None:
                flows.begin(seq, ts)
            attribute_drop(o, layer, cause, ts, flow_id=seq)
        if flows is not None:
            flows.restore_current(None)

    def environment(self, name: str) -> Environment:
        """A reactor environment lasting the run, fingerprinted in the result."""
        # Imported here: stock runners build no reactors.
        from repro.reactors import Environment

        env = Environment(
            name=name, timeout=self.scenario.total_duration_ns(), trace_origin=0
        )
        self._environments.append(env)
        return env

    def transactor(self, kind, name, env, process, endpoint, event, deadline_ns):
        """A *kind* event transactor under the scenario's STP bounds and
        late policy, whose deadline misses and STP violations the result
        sums."""
        scenario = self.scenario
        config = TransactorConfig(
            deadline_ns=deadline_ns,
            stp=StpConfig(
                latency_bound_ns=scenario.latency_bound_ns,
                clock_error_ns=scenario.clock_error_ns,
            ),
            late_policy=LatePolicy(scenario.late_policy),
        )
        tx = kind(name, env, process, endpoint, event, config)
        self._transactors.append(tx)
        return tx

    def result(self):
        """The run's result record (call once the world has run).

        Building it ends the run: each environment hands its trace off
        (:meth:`~repro.reactors.Environment.close`) once fingerprinted
        and the world is closed (:meth:`~repro.sim.World.close`), so the
        traces are freed as soon as the runner returns.  Later calls
        return the same record.
        """
        if self._result is not None:
            return self._result
        # Imported here: the brake package imports this module.
        from repro.apps.brake.instrumentation import BrakeRunResult

        transactors = self._transactors
        self._result = BrakeRunResult(
            seed=self.world.seed,
            n_frames=self.scenario.n_frames,
            errors=self.errors,
            commands=self.commands,
            latencies_ns=self.latencies,
            trace_fingerprints={
                env.name: env.close().fingerprint() for env in self._environments
            },
            deadline_misses=self.deadline_misses
            + sum(t.deadline_misses for t in transactors),
            stp_violations=sum(t.stp_violations for t in transactors),
            fault_summary=self.world.fault_summary,
        )
        self.world.close()
        return self._result


def periodic_stage(world: World, scenario, platform, name: str, body) -> None:
    """Run SWC *name*'s logic *body* (a generator function) every period.

    Like the OS timer callback of an AP process on *platform*: a
    deterministic phase within ``scenario.period_ns`` (own RNG stream
    ``offset.<name>``), the first activation after half the warm-up,
    and an occasional OS hiccup that starts an activation late, drawn
    from the scenario's ``callback_spike_probability`` /
    ``callback_spike_max_ns`` model (own stream ``spike.<name>``).
    """
    period_ns = scenario.period_ns
    probability = scenario.callback_spike_probability

    def activation():
        rng = world.rng.stream(f"spike.{name}")
        if probability > 0.0 and rng.random() < probability:
            late = rng.randint(0, scenario.callback_spike_max_ns)
            if late:
                yield Compute(late)
        yield from body()

    platform.periodic(
        name,
        period_ns,
        activation,
        offset_ns=world.rng.stream(f"offset.{name}").randint(0, period_ns - 1),
        start_delay_ns=scenario.warmup_ns // 2,
    )
