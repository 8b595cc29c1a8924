"""Multi-sensor fusion with fan-in ordering hazards (library scenario).

Three sensor ECUs — camera, radar, lidar — each publish one sample per
period over SOME/IP; a fusion ECU on the far side of a two-switch
fabric combines the three samples *of the same sequence number* into
one actuation value.  The camera is the flow anchor: causal flow
tracing follows its sample, and a fan-in group that cannot be completed
for a sequence is an attributed loss (``fanin-mismatch``).

* **stock** (:func:`run_nondet_fusion`): per-input one-slot buffers and
  a periodic fusion callback.  Whatever the buffers hold when the timer
  fires gets fused — misaligned sequence numbers are counted (and the
  output computed from stale data), missing companions discard the
  anchor sample outright;
* **DEAR** (:func:`run_det_fusion`): each sensor is a reactor behind a
  :class:`ServerEventTransactor`; the fusion reactor consumes three
  tagged streams under safe-to-process waits and aligns groups by
  sequence number exactly.
"""

from __future__ import annotations

from typing import Any

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
from repro.apps.lib.scenarios import FusionScenario
from repro.dear import ClientEventTransactor, ServerEventTransactor
from repro.network.topology import TopologySpec
from repro.obs.flows import CAUSE_FANIN_MISMATCH, LAYER_APP, LAYER_REACTOR
from repro.reactors import Reactor
from repro.sim import Compute, SleepUntil
from repro.someip.serialization import INT64, Struct, UINT32
from repro.time.duration import SEC

CAMERA_ECU = "camera-ecu"
RADAR_ECU = "radar-ecu"
LIDAR_ECU = "lidar-ecu"
FUSION_ECU = "fusion-ecu"

SAMPLE_SPEC = Struct([("seq", UINT32), ("value", INT64)], name="sample")

CAMERA_SERVICE = ServiceInterface(
    "CameraSampleService", 0x0B01,
    events=[Event("sample", 0x8001, data=SAMPLE_SPEC.fields)],
)
RADAR_SERVICE = ServiceInterface(
    "RadarSampleService", 0x0B02,
    events=[Event("sample", 0x8001, data=SAMPLE_SPEC.fields)],
)
LIDAR_SERVICE = ServiceInterface(
    "LidarSampleService", 0x0B03,
    events=[Event("sample", 0x8001, data=SAMPLE_SPEC.fields)],
)

#: (host, service, PRF salt) per sensor; the camera anchors the flows.
SENSORS = (
    ("camera", CAMERA_ECU, CAMERA_SERVICE, 7),
    ("radar", RADAR_ECU, RADAR_SERVICE, 11),
    ("lidar", LIDAR_ECU, LIDAR_SERVICE, 13),
)

#: Actuation threshold on the fused value.
FUSE_THRESHOLD = 50.0


def fusion_recipe(scenario: FusionScenario):
    """The world recipe: sensor switch + fusion switch, joined by one trunk."""
    sensors = (CAMERA_ECU, RADAR_ECU, LIDAR_ECU)
    return (
        library_hosts(scenario, *sensors, FUSION_ECU),
        TopologySpec.chain((sensors, (FUSION_ECU,))),
        None,
    )


def sensor_value(seq: int, salt: int) -> int:
    """Deterministic ground-truth sample (pure function of seq)."""
    return (seq * 37 + salt * 17) % 101


def fuse_values(cam: int, rad: int, lid: int) -> float:
    return (cam + rad + lid) / 3.0


def _actuate(ledger: RunLedger, seq: int, cam: int, rad: int, lid: int) -> None:
    """The fusion sink: fuse one group and record the actuation."""
    fused = fuse_values(cam, rad, lid)
    ledger.sink(seq, SinkCommand(seq, fused > FUSE_THRESHOLD, fused))


def _start_sensors(ledger: RunLedger, emit) -> None:
    """One producer thread per sensor ECU; *emit(name, seq, wire)* sends.

    Only the camera is a :meth:`RunLedger.source`: it opens each flow
    (the other sensors' samples are hops on it — all three share the
    sequence number).
    """
    world, scenario = ledger.world, ledger.scenario
    for name, host, _service, salt in SENSORS:
        platform = world.platform(host)
        jitter_rng = world.rng.stream(f"{name}.jitter")
        is_anchor = name == "camera"

        def sensor_thread(name=name, salt=salt, is_anchor=is_anchor,
                          jitter_rng=jitter_rng):
            for seq in range(scenario.n_frames):
                target = scenario.warmup_ns + seq * scenario.period_ns
                if scenario.sensor_jitter_ns and not scenario.deterministic_inputs:
                    target += jitter_rng.randint(0, scenario.sensor_jitter_ns)
                yield SleepUntil(target)
                wire = {"seq": seq, "value": sensor_value(seq, salt)}
                if is_anchor:
                    ledger.source(seq, emit, name, seq, wire)
                else:
                    emit(name, seq, wire)

        platform.spawn(name, sensor_thread())


def run_nondet_fusion(
    seed: int,
    scenario: FusionScenario | None = None,
    switch_config=None,
    fault_plan=None,
) -> BrakeRunResult:
    """Run the stock fusion pipeline once; returns measurements."""
    scenario = scenario or FusionScenario()
    world = registry.get("fusion").build_world(
        seed, scenario, switch_config, fault_plan
    )
    fusion = world.platform(FUSION_ECU)
    errors = PipelineErrors()
    ledger = RunLedger(world, scenario, errors)

    # ---- sensor-side skeletons --------------------------------------------
    skeletons: dict[str, Any] = {}
    for name, host, service, _salt in SENSORS:
        process = AraProcess(world.platform(host), name)
        skeleton = process.create_skeleton(service, 1)
        skeleton.offer()
        skeletons[name] = skeleton

    def emit(name: str, seq: int, wire: dict) -> None:
        skeletons[name].send_event("sample", wire)

    # ---- fusion: three one-slot buffers + a periodic callback -------------
    fusion_process = AraProcess(fusion, "fusion")
    buffers = {
        name: OneSlotBuffer(f"fusion.{name}", sim=world.sim)
        for name, _host, _service, _salt in SENSORS
    }
    copy_rng = world.rng.stream("copy.fusion")
    fuse_rng = world.rng.stream("exec.fusion")

    def fusion_setup():
        for name, _host, service, _salt in SENSORS:
            proxy = yield from fusion_process.find_service(service, 1)

            def on_sample(data, name=name):
                yield Compute(scenario.sample_copy_cost.sample(copy_rng))
                buffers[name].write(data)

            proxy.subscribe("sample", on_sample)

    fusion_process.spawn("setup", fusion_setup())

    def fuse_body():
        cam = buffers["camera"].read()
        rad = buffers["radar"].read()
        lid = buffers["lidar"].read()
        if cam is None and rad is None and lid is None:
            return
        if cam is None:
            # A fan-in group without its anchor: nothing to key on.
            errors.mismatched_inputs += 1
            return
        if rad is None or lid is None:
            # The anchor sample is consumed without a complete group —
            # that sequence can never be fused again.
            errors.mismatched_inputs += 1
            ledger.drop(cam["seq"], LAYER_APP, CAUSE_FANIN_MISMATCH)
            return
        if not (cam["seq"] == rad["seq"] == lid["seq"]):
            # Stale companions: the stock pipeline fuses them anyway.
            errors.mismatched_inputs += 1
        yield Compute(scenario.fuse.sample(fuse_rng))
        _actuate(ledger, cam["seq"], cam["value"], rad["value"], lid["value"])

    periodic_stage(world, scenario, fusion, "fusion", fuse_body)

    # ---- run --------------------------------------------------------------
    _start_sensors(ledger, emit)
    world.run_for(scenario.total_duration_ns())

    errors.dropped_input = sum(buffer.drops for buffer in buffers.values())
    return ledger.result()


class _SensorLogic(Reactor):
    """One sensor: sporadic sample arrivals -> tagged sample events."""

    def __init__(self, name, owner, scenario: FusionScenario):
        super().__init__(name, owner)
        self.sample_arrival = self.physical_action("sample_arrival")
        self.out = self.output("out")
        self.reaction(
            "forward",
            triggers=[self.sample_arrival],
            effects=[self.out],
            body=lambda ctx: ctx.set(self.out, ctx.get(self.sample_arrival)),
            exec_time=lambda rng: scenario.sensor.sample(rng),
        )


class _FusionLogic(Reactor):
    """Aligns the three tagged sample streams by sequence number.

    Samples arrive at per-sensor tags; groups complete when all three
    sensors contributed a given sequence.  Incomplete groups lagging
    ``eviction_horizon`` behind the newest completion are evicted as
    fan-in mismatches — under intact assumptions none are.
    """

    def __init__(self, name, owner, scenario, ledger: RunLedger):
        super().__init__(name, owner)
        self.cam_in = self.input("cam_in")
        self.rad_in = self.input("rad_in")
        self.lid_in = self.input("lid_in")
        self.pending: dict[int, dict[str, int]] = {}
        self.completed_horizon = -1

        def work(ctx):
            for source, port in (
                ("camera", self.cam_in),
                ("radar", self.rad_in),
                ("lidar", self.lid_in),
            ):
                if not ctx.is_present(port):
                    continue
                sample = ctx.get(port)
                group = self.pending.setdefault(sample["seq"], {})
                group[source] = sample["value"]
            done = [
                seq for seq, group in self.pending.items() if len(group) == 3
            ]
            for seq in sorted(done):
                group = self.pending.pop(seq)
                _actuate(
                    ledger, seq, group["camera"], group["radar"], group["lidar"]
                )
                self.completed_horizon = max(self.completed_horizon, seq)
            floor = self.completed_horizon - scenario.eviction_horizon
            for seq in sorted(self.pending):
                if seq >= floor:
                    break
                del self.pending[seq]
                ledger.errors.mismatched_inputs += 1
                ledger.drop(seq, LAYER_REACTOR, CAUSE_FANIN_MISMATCH)

        self.reaction(
            "align",
            triggers=[self.cam_in, self.rad_in, self.lid_in],
            body=work,
            exec_time=lambda rng: scenario.fuse.sample(rng),
        )


def run_det_fusion(
    seed: int,
    scenario: FusionScenario | None = None,
    switch_config=None,
    fault_plan=None,
) -> BrakeRunResult:
    """Run the DEAR fusion pipeline once; returns measurements."""
    scenario = scenario or FusionScenario()
    world = registry.get("fusion").build_world(
        seed, scenario, switch_config, fault_plan
    )
    fusion = world.platform(FUSION_ECU)
    ledger = RunLedger(world, scenario, PipelineErrors())

    # ---- sensors: reactor + server transactor per ECU ---------------------
    sensor_logics: dict[str, _SensorLogic] = {}
    for name, host, service, _salt in SENSORS:
        platform = world.platform(host)
        process = AraProcess(platform, name, tag_aware=True)
        env = ledger.environment(name)
        logic = _SensorLogic("logic", env, scenario)
        skeleton = process.create_skeleton(service, 1)
        tx = ledger.transactor(
            ServerEventTransactor, "sample_tx", env, process, skeleton, "sample",
            scenario.sensor_deadline_ns,
        )
        env.connect(logic.out, tx.inp)
        skeleton.offer()
        env.start(platform)
        sensor_logics[name] = logic

    def emit(name: str, seq: int, wire: dict) -> None:
        sensor_logics[name].sample_arrival.schedule(wire)

    # ---- fusion: three tagged client streams into one aligner -------------
    fusion_process = AraProcess(fusion, "fusion", tag_aware=True)
    fusion_env = ledger.environment("fusion")
    fusion_logic = _FusionLogic("logic", fusion_env, scenario, ledger)

    def fusion_setup():
        for service, port in (
            (CAMERA_SERVICE, fusion_logic.cam_in),
            (RADAR_SERVICE, fusion_logic.rad_in),
            (LIDAR_SERVICE, fusion_logic.lid_in),
        ):
            proxy = yield from fusion_process.find_service(service, 1)
            rx = ledger.transactor(
                ClientEventTransactor, f"{service.name}_rx", fusion_env, fusion_process,
                proxy, "sample", scenario.fuse_deadline_ns,
            )
            fusion_env.connect(rx.out, port)
        fusion_env.start(fusion)

    fusion_process.spawn("setup", fusion_setup())

    # ---- run --------------------------------------------------------------
    _start_sensors(ledger, emit)
    world.run_for(scenario.total_duration_ns() + 1 * SEC)

    # Groups still incomplete at the end of the run never fused.
    for seq in sorted(fusion_logic.pending):
        ledger.errors.mismatched_inputs += 1
        ledger.drop(seq, LAYER_REACTOR, CAUSE_FANIN_MISMATCH)

    return ledger.result()
