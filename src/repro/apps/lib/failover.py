"""SOME/IP SD service failover under a node crash (library scenario).

A primary producer ECU streams readings to a consumer ECU across a
two-switch fabric; a standby producer on a third ECU watches the
primary's SD offer through its discovery cache and takes over offering
the *same* service instance once the offer's TTL lapses.  The default
fault plan crashes the primary over the scenario's outage window —
discovery TTL expiry, FIND retransmission and re-subscription are
exactly the machinery under test.

Loss accounting: a reading published while no subscriber is live is a
``no-subscriber`` drop at the SOME/IP layer (the skeleton's
``send_event`` reports its receiver count).  During the hand-over both
producers may publish the same sequence; the flow registry keeps one
record per sequence and a later delivery clears the earlier drop.

* **stock** (:func:`run_nondet_failover`): one-slot consumer buffer and
  a periodic consume callback;
* **DEAR** (:func:`run_det_failover`): consumption runs in a reactor
  environment fed by a physical action, so hand-over and re-discovery
  leave a reproducible tagged trace.
"""

from __future__ import annotations

from typing import Any

from repro.ara import AraProcess, Event, ServiceInterface
from repro.apps import registry
from repro.apps.brake.instrumentation import BrakeRunResult, OneSlotBuffer
from repro.apps.lib.common import (
    PipelineErrors,
    SinkCommand,
    begin_flow,
    library_hosts,
    deliver_flow,
    drop_flow,
    random_offset,
    spike,
)
from repro.apps.lib.scenarios import FailoverScenario
from repro.errors import ServiceNotAvailableError
from repro.faults import FaultPlan, NodeOutage
from repro.network.topology import TopologySpec
from repro.obs.flows import CAUSE_NO_SUBSCRIBER, LAYER_SOMEIP
from repro.reactors import Environment, Reactor
from repro.sim import Compute, SleepUntil
from repro.someip.serialization import INT64, Struct, UINT32
from repro.time.duration import SEC

PRIMARY_ECU = "producer-a"
STANDBY_ECU = "producer-b"
CONSUMER_ECU = "consumer-ecu"

READING_SPEC = Struct([("seq", UINT32), ("value", INT64)], name="reading")

READING_SERVICE = ServiceInterface(
    "ReadingService", 0x0C01,
    events=[Event("reading", 0x8001, data=READING_SPEC.fields)],
)
INSTANCE = 1


def failover_recipe(scenario: FailoverScenario):
    """The world recipe: producers on one switch, the consumer behind a
    trunk.  The scenario *is* its fault: the primary crashes for a while."""
    producers = (PRIMARY_ECU, STANDBY_ECU)
    outage = NodeOutage(
        PRIMARY_ECU, scenario.outage_start_ns, scenario.outage_end_ns
    )
    return (
        library_hosts(scenario, *producers, CONSUMER_ECU),
        TopologySpec.chain((producers, (CONSUMER_ECU,))),
        FaultPlan(outages=(outage,)),
    )


def reading_value(seq: int) -> int:
    """Deterministic ground-truth reading (pure function of seq)."""
    return (seq * 53 + 29) % 997


class _Producer:
    """One producer role (primary or standby) on its own ECU."""

    def __init__(self, world, host, scenario, errors, send_times, active):
        self.world = world
        self.scenario = scenario
        self.errors = errors
        self.send_times = send_times
        #: Whether this role currently offers (primaries start active).
        self.active = active
        self.process = AraProcess(world.platform(host), f"producer.{host}")
        self.skeleton = self.process.create_skeleton(READING_SERVICE, INSTANCE)
        self.jitter_rng = world.rng.stream(f"{host}.jitter")
        if active:
            self.skeleton.offer()

    def publish(self, seq: int) -> None:
        now = self.world.sim.now
        self.send_times.setdefault(seq, now)
        flows = begin_flow(seq, now)
        receivers = self.skeleton.send_event(
            "reading", {"seq": seq, "value": reading_value(seq)}
        )
        if receivers == 0:
            # Published into the void: the subscriber table is empty
            # while the consumer is still rediscovering the service.
            self.errors.stale_publishes += 1
            drop_flow(seq, LAYER_SOMEIP, CAUSE_NO_SUBSCRIBER, self.world.sim.now)
        if flows is not None:
            flows.restore_current(None)

    def tick_loop(self):
        scenario = self.scenario
        for seq in range(scenario.n_frames):
            target = scenario.warmup_ns + seq * scenario.period_ns
            if self.world.sim.now > target + scenario.period_ns:
                # Missed while crashed (or frozen): a real periodic task
                # skips overrun activations instead of bursting.
                continue
            if scenario.jitter_ns and not scenario.deterministic_inputs:
                target += self.jitter_rng.randint(0, scenario.jitter_ns)
            yield SleepUntil(target)
            if self.active:
                self.publish(seq)

    def standby_loop(self):
        """Poll the primary's cached offer; take over / step back."""
        scenario = self.scenario
        sd = self.process.sd
        service = READING_SERVICE.service_id
        while True:
            yield SleepUntil(self.world.sim.now + scenario.standby_poll_ns)
            primary_alive = sd.cached(service, INSTANCE) is not None
            if not self.active and not primary_alive:
                self.active = True
                self.skeleton.offer()
            elif self.active and primary_alive:
                # The primary's offer is back: yield the instance.
                self.active = False
                self.skeleton.stop_offer()

    def start(self) -> None:
        self.process.spawn("tick", self.tick_loop())
        if not self.active:
            self.process.spawn("standby", self.standby_loop())


class _ConsumerSupervisor:
    """Discovery / staleness supervision shared by both variants.

    ``loop`` keeps a subscription alive: find the service, subscribe,
    and whenever no reading arrived for ``stale_after_ns``, run
    discovery again — the cached entry may meanwhile point at the
    standby (or back at the recovered primary).
    """

    def __init__(self, world, scenario, process, on_reading):
        self.world = world
        self.scenario = scenario
        self.process = process
        self.on_reading = on_reading
        self.last_rx = 0
        self.rediscoveries = 0

    def note_rx(self) -> None:
        self.last_rx = self.world.sim.now

    def loop(self):
        scenario = self.scenario
        while True:
            try:
                proxy = yield from self.process.find_service(
                    READING_SERVICE, INSTANCE, timeout_ns=2 * SEC
                )
            except ServiceNotAvailableError:
                continue
            proxy.subscribe("reading", self.on_reading)
            self.last_rx = self.world.sim.now
            while True:
                yield SleepUntil(self.world.sim.now + scenario.stale_after_ns // 2)
                if self.world.sim.now - self.last_rx > scenario.stale_after_ns:
                    self.rediscoveries += 1
                    break


def run_nondet_failover(
    seed: int,
    scenario: FailoverScenario | None = None,
    switch_config=None,
    fault_plan=None,
    fault_replay=None,
    fault_universe=None,
    fault_checkpointer=None,
) -> BrakeRunResult:
    """Run the stock failover pipeline once; returns measurements."""
    scenario = scenario or FailoverScenario()
    world = registry.get("failover").build_world(
        seed, scenario, switch_config, fault_plan,
        fault_replay, fault_universe, fault_checkpointer,
    )
    errors = PipelineErrors()
    commands: dict[int, Any] = {}
    latencies: dict[int, int] = {}
    send_times: dict[int, int] = {}

    primary = _Producer(world, PRIMARY_ECU, scenario, errors, send_times, True)
    standby = _Producer(world, STANDBY_ECU, scenario, errors, send_times, False)

    consumer_platform = world.platform(CONSUMER_ECU)
    consumer = AraProcess(consumer_platform, "consumer")
    buffer = OneSlotBuffer("consumer.reading", sim=world.sim)
    consume_rng = world.rng.stream("exec.consume")

    def on_reading(data):
        supervisor.note_rx()
        buffer.write(data)

    supervisor = _ConsumerSupervisor(world, scenario, consumer, on_reading)

    def consume_body():
        late = spike(world, "consume", scenario)
        if late:
            yield Compute(late)
        reading = buffer.read()
        if reading is None:
            return
        yield Compute(scenario.consume.sample(consume_rng))
        seq = reading["seq"]
        if seq in commands:
            return  # hand-over overlap duplicate
        commands[seq] = SinkCommand(seq, True, float(reading["value"]))
        sent = send_times.get(seq)
        if sent is not None:
            latencies[seq] = world.sim.now - sent
        deliver_flow(seq, world.sim.now)

    consumer_platform.periodic(
        "consume", scenario.period_ns, consume_body,
        offset_ns=random_offset(world, "consume", scenario.period_ns),
        start_delay_ns=scenario.warmup_ns // 2,
    )

    primary.start()
    standby.start()
    consumer.spawn("supervisor", supervisor.loop())
    world.run_for(scenario.total_duration_ns())

    errors.dropped_input = buffer.drops
    return BrakeRunResult(
        seed=seed,
        n_frames=scenario.n_frames,
        errors=errors,
        commands=commands,
        latencies_ns=latencies,
        fault_summary=world.fault_summary,
    )


class _ConsumerLogic(Reactor):
    """Tagged consumption: readings enter through a physical action.

    Failover changes *which* service instance feeds the action, but the
    environment's trace stays a single totally-ordered tag sequence —
    the DEAR property under test here.  (Client transactors bind to one
    discovered instance at environment start; a physical action is the
    boundary that survives re-discovery.)
    """

    def __init__(self, name, owner, scenario: FailoverScenario, sink):
        super().__init__(name, owner)
        self.reading_arrival = self.physical_action("reading_arrival")
        self.reaction(
            "consume",
            triggers=[self.reading_arrival],
            body=lambda ctx: sink(ctx.get(self.reading_arrival)),
            exec_time=lambda rng: scenario.consume.sample(rng),
        )


def run_det_failover(
    seed: int,
    scenario: FailoverScenario | None = None,
    switch_config=None,
    fault_plan=None,
    fault_replay=None,
    fault_universe=None,
    fault_checkpointer=None,
) -> BrakeRunResult:
    """Run the DEAR failover pipeline once; returns measurements."""
    scenario = scenario or FailoverScenario()
    world = registry.get("failover").build_world(
        seed, scenario, switch_config, fault_plan,
        fault_replay, fault_universe, fault_checkpointer,
    )
    errors = PipelineErrors()
    commands: dict[int, Any] = {}
    latencies: dict[int, int] = {}
    send_times: dict[int, int] = {}
    horizon = scenario.total_duration_ns()
    deadline_misses = 0

    primary = _Producer(world, PRIMARY_ECU, scenario, errors, send_times, True)
    standby = _Producer(world, STANDBY_ECU, scenario, errors, send_times, False)

    consumer_platform = world.platform(CONSUMER_ECU)
    consumer = AraProcess(consumer_platform, "consumer")
    env = Environment(name="consumer", timeout=horizon, trace_origin=0)

    def sink(reading) -> None:
        nonlocal deadline_misses
        seq = reading["seq"]
        if seq in commands:
            return  # hand-over overlap duplicate
        commands[seq] = SinkCommand(seq, True, float(reading["value"]))
        sent = send_times.get(seq)
        if sent is not None:
            latency = world.sim.now - sent
            latencies[seq] = latency
            if latency > scenario.consume_deadline_ns:
                deadline_misses += 1
        deliver_flow(seq, world.sim.now)

    logic = _ConsumerLogic("logic", env, scenario, sink)

    def on_reading(data):
        supervisor.note_rx()
        logic.reading_arrival.schedule(data)

    supervisor = _ConsumerSupervisor(world, scenario, consumer, on_reading)
    env.start(consumer_platform)

    primary.start()
    standby.start()
    consumer.spawn("supervisor", supervisor.loop())
    world.run_for(horizon + 1 * SEC)

    return BrakeRunResult(
        seed=seed,
        n_frames=scenario.n_frames,
        errors=errors,
        commands=commands,
        latencies_ns=latencies,
        trace_fingerprints={env.name: env.trace.fingerprint()},
        deadline_misses=deadline_misses,
        fault_summary=world.fault_summary,
    )
