"""Mixed-criticality pipeline sharing a switch fabric (library scenario).

A critical control flow (sensor ECU -> control ECU) crosses the same
inter-switch trunk as bursty bulk telemetry (telemetry ECU -> logger
ECU).  The trunk is deliberately slow, so every bulk burst queues the
critical sample behind kilobytes of telemetry — jitter that stays
within the declared latency bound ``L`` by construction.

* **stock** (:func:`run_nondet_mixedcrit`): the control ECU samples a
  one-slot buffer periodically; trunk-induced jitter beats against the
  sampling phase and turns into buffer overwrites and deadline misses;
* **DEAR** (:func:`run_det_mixedcrit`): sensor and control run as
  reactors bridged by event transactors; safe-to-process waits absorb
  the contention jitter, so every sample is processed exactly once in
  tag order.
"""

from __future__ import annotations

from repro.ara import AraProcess, Event, ServiceInterface
from repro.apps import registry
from repro.apps.brake.instrumentation import BrakeRunResult, OneSlotBuffer
from repro.apps.lib.common import (
    PipelineErrors,
    RunLedger,
    SinkCommand,
    library_hosts,
    periodic_stage,
)
from repro.apps.lib.scenarios import MixedCriticalityScenario
from repro.dear import ClientEventTransactor, ServerEventTransactor
from repro.network import NetworkInterface
from repro.network.topology import TopologySpec
from repro.reactors import Reactor
from repro.sim import Compute, SleepUntil, World
from repro.someip.serialization import INT64, Struct, UINT32
from repro.time.duration import SEC

SENSOR_ECU = "sensor-ecu"
TELEMETRY_ECU = "telemetry-ecu"
CONTROL_ECU = "control-ecu"
LOGGER_ECU = "logger-ecu"

SAMPLE_SPEC = Struct([("seq", UINT32), ("value", INT64)], name="sample")

CONTROL_SERVICE = ServiceInterface(
    "ControlSampleService", 0x0D01,
    events=[Event("sample", 0x8001, data=SAMPLE_SPEC.fields)],
)
INSTANCE = 1

#: Raw port the logger ECU sinks bulk telemetry on.
BULK_PORT = 16000


def mixedcrit_recipe(scenario: MixedCriticalityScenario):
    """The world recipe: critical and bulk sources share the (slow)
    trunk to the far switch."""
    sources, sinks = (SENSOR_ECU, TELEMETRY_ECU), (CONTROL_ECU, LOGGER_ECU)
    return (
        library_hosts(scenario, *sources, *sinks),
        TopologySpec.chain(
            (sources, sinks), trunk_ns_per_byte=scenario.trunk_ns_per_byte
        ),
        None,
    )


def sample_value(seq: int) -> int:
    """Deterministic ground-truth sample (pure function of seq)."""
    return (seq * 41 + 3) % 211


def _control(ledger: RunLedger, sample: dict) -> None:
    """The control sink of the critical flow."""
    seq = sample["seq"]
    ledger.sink(seq, SinkCommand(seq, True, float(sample["value"])))


def _start_bulk_traffic(world: World, scenario: MixedCriticalityScenario) -> None:
    """Telemetry bursts + a logger sink; not flow-traced (best effort)."""
    telemetry = world.platform(TELEMETRY_ECU)
    logger = world.platform(LOGGER_ECU)
    logger_nic: NetworkInterface = logger.attachments["nic"]
    sink = logger_nic.bind(BULK_PORT)
    sink.on_receive = lambda frame: None  # frames are dropped on the floor
    socket = telemetry.attachments["nic"].bind()
    payload = b"\x00" * 64  # simulated size dominates, content is moot

    def bulk_thread():
        burst = 0
        while True:
            target = scenario.warmup_ns // 2 + burst * scenario.bulk_period_ns
            yield SleepUntil(target)
            for _ in range(scenario.bulk_burst):
                socket.send(LOGGER_ECU, BULK_PORT, payload, scenario.bulk_bytes)
            burst += 1

    telemetry.spawn("telemetry", bulk_thread())


def _start_sensor(ledger: RunLedger, emit) -> None:
    """The critical source: every sample is a :meth:`RunLedger.source`
    sent by *emit(seq, wire)*."""
    world, scenario = ledger.world, ledger.scenario
    platform = world.platform(SENSOR_ECU)
    jitter_rng = world.rng.stream("sensor.jitter")

    def sensor_thread():
        for seq in range(scenario.n_frames):
            target = scenario.warmup_ns + seq * scenario.period_ns
            if scenario.jitter_ns and not scenario.deterministic_inputs:
                target += jitter_rng.randint(0, scenario.jitter_ns)
            yield SleepUntil(target)
            wire = {"seq": seq, "value": sample_value(seq)}
            ledger.source(seq, emit, seq, wire)

    platform.spawn("sensor", sensor_thread())


def run_nondet_mixedcrit(
    seed: int,
    scenario: MixedCriticalityScenario | None = None,
    switch_config=None,
    fault_plan=None,
) -> BrakeRunResult:
    """Run the stock mixed-criticality pipeline once; returns measurements."""
    scenario = scenario or MixedCriticalityScenario()
    world = registry.get("mixedcrit").build_world(
        seed, scenario, switch_config, fault_plan
    )
    errors = PipelineErrors()
    # No transactor on the critical path: the sink counts its deadline.
    ledger = RunLedger(world, scenario, errors, scenario.consume_deadline_ns)

    sensor_process = AraProcess(world.platform(SENSOR_ECU), "sensor")
    skeleton = sensor_process.create_skeleton(CONTROL_SERVICE, INSTANCE)
    skeleton.offer()

    def emit(seq: int, wire: dict) -> None:
        ledger.publish(skeleton, "sample", wire)

    control_platform = world.platform(CONTROL_ECU)
    control = AraProcess(control_platform, "control")
    buffer = OneSlotBuffer("control.sample", sim=world.sim)
    consume_rng = world.rng.stream("exec.consume")

    def control_setup():
        proxy = yield from control.find_service(CONTROL_SERVICE, INSTANCE)
        proxy.subscribe("sample", lambda data: buffer.write(data))

    control.spawn("setup", control_setup())

    def consume_body():
        sample = buffer.read()
        if sample is None:
            return
        yield Compute(scenario.consume.sample(consume_rng))
        _control(ledger, sample)

    periodic_stage(world, scenario, control_platform, "consume", consume_body)

    _start_bulk_traffic(world, scenario)
    _start_sensor(ledger, emit)
    world.run_for(scenario.total_duration_ns())

    errors.dropped_input = buffer.drops
    return ledger.result()


class _SensorLogic(Reactor):
    """Sporadic sample arrivals -> tagged sample events."""

    def __init__(self, name, owner, scenario: MixedCriticalityScenario):
        super().__init__(name, owner)
        self.sample_arrival = self.physical_action("sample_arrival")
        self.out = self.output("out")
        self.reaction(
            "forward",
            triggers=[self.sample_arrival],
            effects=[self.out],
            body=lambda ctx: ctx.set(self.out, ctx.get(self.sample_arrival)),
            exec_time=lambda rng: scenario.produce.sample(rng),
        )


class _ControlLogic(Reactor):
    """Tagged sink of the critical flow."""

    def __init__(self, name, owner, scenario: MixedCriticalityScenario, ledger):
        super().__init__(name, owner)
        self.sample_in = self.input("sample_in")
        self.reaction(
            "consume",
            triggers=[self.sample_in],
            body=lambda ctx: _control(ledger, ctx.get(self.sample_in)),
            exec_time=lambda rng: scenario.consume.sample(rng),
        )


def run_det_mixedcrit(
    seed: int,
    scenario: MixedCriticalityScenario | None = None,
    switch_config=None,
    fault_plan=None,
) -> BrakeRunResult:
    """Run the DEAR mixed-criticality pipeline once; returns measurements."""
    scenario = scenario or MixedCriticalityScenario()
    world = registry.get("mixedcrit").build_world(
        seed, scenario, switch_config, fault_plan
    )
    ledger = RunLedger(world, scenario, PipelineErrors())
    deadline_ns = scenario.consume_deadline_ns

    # ---- sensor: reactor + server transactor ------------------------------
    sensor_platform = world.platform(SENSOR_ECU)
    sensor_process = AraProcess(sensor_platform, "sensor", tag_aware=True)
    sensor_env = ledger.environment("sensor")
    sensor_logic = _SensorLogic("logic", sensor_env, scenario)
    skeleton = sensor_process.create_skeleton(CONTROL_SERVICE, INSTANCE)
    tx = ledger.transactor(
        ServerEventTransactor, "sample_tx", sensor_env, sensor_process, skeleton,
        "sample", deadline_ns,
    )
    sensor_env.connect(sensor_logic.out, tx.inp)
    skeleton.offer()
    sensor_env.start(sensor_platform)

    def emit(seq: int, wire: dict) -> None:
        sensor_logic.sample_arrival.schedule(wire)

    # ---- control: client transactor into the tagged sink ------------------
    control_platform = world.platform(CONTROL_ECU)
    control_process = AraProcess(control_platform, "control", tag_aware=True)
    control_env = ledger.environment("control")
    control_logic = _ControlLogic("logic", control_env, scenario, ledger)

    def control_setup():
        proxy = yield from control_process.find_service(CONTROL_SERVICE, INSTANCE)
        rx = ledger.transactor(
            ClientEventTransactor, "sample_rx", control_env, control_process,
            proxy, "sample", deadline_ns,
        )
        control_env.connect(rx.out, control_logic.sample_in)
        control_env.start(control_platform)

    control_process.spawn("setup", control_setup())

    # ---- run --------------------------------------------------------------
    _start_bulk_traffic(world, scenario)
    _start_sensor(ledger, emit)
    world.run_for(scenario.total_duration_ns() + 1 * SEC)
    return ledger.result()
