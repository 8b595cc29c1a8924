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
    random_offset,
    spike,
)
from repro.apps.lib.scenarios import MixedCriticalityScenario
from repro.dear import (
    ClientEventTransactor,
    LatePolicy,
    ServerEventTransactor,
    StpConfig,
    TransactorConfig,
)
from repro.network import NetworkInterface
from repro.network.topology import TopologySpec
from repro.reactors import Environment, Reactor
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


def _start_bulk_traffic(world: World, scenario: MixedCriticalityScenario) -> None:
    """Telemetry bursts + a logger sink; not flow-traced (best effort)."""
    telemetry = world.platform(TELEMETRY_ECU)
    logger = world.platform(LOGGER_ECU)
    logger_nic: NetworkInterface = logger.attachments["nic"]
    logger_nic.bind(BULK_PORT)  # sink: frames are dropped on the floor
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


def _start_sensor(
    world: World,
    scenario: MixedCriticalityScenario,
    send_times: dict[int, int],
    emit,
) -> None:
    platform = world.platform(SENSOR_ECU)
    jitter_rng = world.rng.stream("sensor.jitter")

    def sensor_thread():
        for seq in range(scenario.n_frames):
            target = scenario.warmup_ns + seq * scenario.period_ns
            if scenario.jitter_ns and not scenario.deterministic_inputs:
                target += jitter_rng.randint(0, scenario.jitter_ns)
            yield SleepUntil(target)
            wire = {"seq": seq, "value": sample_value(seq)}
            send_times[seq] = world.sim.now
            flows = begin_flow(seq, world.sim.now)
            emit(seq, wire)
            if flows is not None:
                flows.restore_current(None)

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
    commands: dict[int, Any] = {}
    latencies: dict[int, int] = {}
    send_times: dict[int, int] = {}
    deadline_misses = 0

    sensor_process = AraProcess(world.platform(SENSOR_ECU), "sensor")
    skeleton = sensor_process.create_skeleton(CONTROL_SERVICE, INSTANCE)
    skeleton.offer()

    def emit(seq: int, wire: dict) -> None:
        receivers = skeleton.send_event("sample", wire)
        if receivers == 0:
            errors.stale_publishes += 1

    control_platform = world.platform(CONTROL_ECU)
    control = AraProcess(control_platform, "control")
    buffer = OneSlotBuffer("control.sample", sim=world.sim)
    consume_rng = world.rng.stream("exec.consume")

    def control_setup():
        proxy = yield from control.find_service(CONTROL_SERVICE, INSTANCE)
        proxy.subscribe("sample", lambda data: buffer.write(data))

    control.spawn("setup", control_setup())

    def consume_body():
        nonlocal deadline_misses
        late = spike(world, "consume", scenario)
        if late:
            yield Compute(late)
        sample = buffer.read()
        if sample is None:
            return
        yield Compute(scenario.consume.sample(consume_rng))
        seq = sample["seq"]
        commands[seq] = SinkCommand(seq, True, float(sample["value"]))
        sent = send_times.get(seq)
        if sent is not None:
            latency = world.sim.now - sent
            latencies[seq] = latency
            if latency > scenario.consume_deadline_ns:
                deadline_misses += 1
        deliver_flow(seq, world.sim.now)

    control_platform.periodic(
        "consume", scenario.period_ns, consume_body,
        offset_ns=random_offset(world, "consume", scenario.period_ns),
        start_delay_ns=scenario.warmup_ns // 2,
    )

    _start_bulk_traffic(world, scenario)
    _start_sensor(world, scenario, send_times, emit)
    world.run_for(scenario.total_duration_ns())

    errors.dropped_input = buffer.drops
    return BrakeRunResult(
        seed=seed,
        n_frames=scenario.n_frames,
        errors=errors,
        commands=commands,
        latencies_ns=latencies,
        deadline_misses=deadline_misses,
        fault_summary=world.fault_summary,
    )


def _transactor_config(scenario: MixedCriticalityScenario) -> TransactorConfig:
    return TransactorConfig(
        deadline_ns=scenario.consume_deadline_ns,
        stp=StpConfig(
            latency_bound_ns=scenario.latency_bound_ns,
            clock_error_ns=scenario.clock_error_ns,
        ),
        late_policy=LatePolicy(scenario.late_policy),
    )


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

    def __init__(self, name, owner, scenario: MixedCriticalityScenario, sink):
        super().__init__(name, owner)
        self.sample_in = self.input("sample_in")
        self.reaction(
            "consume",
            triggers=[self.sample_in],
            body=lambda ctx: sink(ctx.get(self.sample_in)),
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
    errors = PipelineErrors()
    commands: dict[int, Any] = {}
    latencies: dict[int, int] = {}
    send_times: dict[int, int] = {}
    horizon = scenario.total_duration_ns()
    transactors = []

    # ---- sensor: reactor + server transactor ------------------------------
    sensor_platform = world.platform(SENSOR_ECU)
    sensor_process = AraProcess(sensor_platform, "sensor", tag_aware=True)
    sensor_env = Environment(name="sensor", timeout=horizon, trace_origin=0)
    sensor_logic = _SensorLogic("logic", sensor_env, scenario)
    skeleton = sensor_process.create_skeleton(CONTROL_SERVICE, INSTANCE)
    tx = ServerEventTransactor(
        "sample_tx", sensor_env, sensor_process, skeleton, "sample",
        _transactor_config(scenario),
    )
    sensor_env.connect(sensor_logic.out, tx.inp)
    skeleton.offer()
    transactors.append(tx)
    sensor_env.start(sensor_platform)

    def emit(seq: int, wire: dict) -> None:
        sensor_logic.sample_arrival.schedule(wire)

    # ---- control: client transactor into the tagged sink ------------------
    control_platform = world.platform(CONTROL_ECU)
    control_process = AraProcess(control_platform, "control", tag_aware=True)
    control_env = Environment(name="control", timeout=horizon, trace_origin=0)

    def sink(sample) -> None:
        seq = sample["seq"]
        commands[seq] = SinkCommand(seq, True, float(sample["value"]))
        sent = send_times.get(seq)
        if sent is not None:
            latencies[seq] = world.sim.now - sent
        deliver_flow(seq, world.sim.now)

    control_logic = _ControlLogic("logic", control_env, scenario, sink)

    def control_setup():
        proxy = yield from control_process.find_service(CONTROL_SERVICE, INSTANCE)
        rx = ClientEventTransactor(
            "sample_rx", control_env, control_process, proxy, "sample",
            _transactor_config(scenario),
        )
        control_env.connect(rx.out, control_logic.sample_in)
        transactors.append(rx)
        control_env.start(control_platform)

    control_process.spawn("setup", control_setup())

    # ---- run --------------------------------------------------------------
    _start_bulk_traffic(world, scenario)
    _start_sensor(world, scenario, send_times, emit)
    world.run_for(horizon + 1 * SEC)

    return BrakeRunResult(
        seed=seed,
        n_frames=scenario.n_frames,
        errors=errors,
        commands=commands,
        latencies_ns=latencies,
        trace_fingerprints={
            env.name: env.trace.fingerprint()
            for env in (sensor_env, control_env)
        },
        deadline_misses=sum(t.deadline_misses for t in transactors),
        stp_violations=sum(t.stp_violations for t in transactors),
        fault_summary=world.fault_summary,
    )
