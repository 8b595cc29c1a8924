"""The stock brake assistant (Section IV.A) — nondeterministic.

Faithful to the demonstrator's structure:

* **Video Provider** (platform 1) sends one frame approximately every
  50 ms over a proprietary protocol (a raw datagram here);
* **Video Adapter, Preprocessing, Computer Vision, EBA** (platform 2)
  are AP processes.  Event notifications carry the data; each event
  handler stores into a **one-slot input buffer**; each SWC runs a
  periodic OS callback every 50 ms that reads its buffer, computes, and
  publishes its result.  If a buffer is overwritten before the periodic
  logic read it, the data is lost — dropped frames; because Computer
  Vision reads *two* buffers, its inputs can also be misaligned.

Error rates depend on the (random, per-seed) phase offsets between the
periodic callbacks, execution-time jitter, and middleware scheduling —
the mechanism behind the huge spread of Figure 5.
"""

from __future__ import annotations

from typing import Any

from repro.ara import AraProcess, Event, ServiceInterface
from repro.apps import registry
from repro.apps.brake.data import (
    BRAKE_SPEC,
    FRAME_SPEC,
    LANE_SPEC,
    VEHICLES_SPEC,
    frame_from_wire,
    frame_to_wire,
    lane_from_wire,
    lane_to_wire,
    vehicles_from_wire,
    vehicles_to_wire,
)
from repro.apps.brake.instrumentation import (
    BrakeRunResult,
    ErrorCounters,
    OneSlotBuffer,
)
from repro.apps.brake.logic import decide_brake, detect_vehicles, preprocess
from repro.apps.brake.scenario import BrakeScenario
from repro.apps.brake.vision import SceneGenerator
from repro.apps.lib.common import random_offset, spike
from repro.network import NetworkInterface, SwitchConfig
from repro.obs import context as obs_context
from repro.sim import Compute, SleepUntil, World
from repro.sim.platform import CALM, MINNOWBOARD, Platform, PlatformConfig
from repro.time.clock import ClockModel

#: Raw datagram port of the Video Adapter's proprietary camera input.
ADAPTER_RAW_PORT = 15000

ADAPTER_SERVICE = ServiceInterface(
    "VideoAdapterService", 0x0A01,
    events=[Event("frame", 0x8001, data=FRAME_SPEC.fields)],
)
PREPROCESSING_SERVICE = ServiceInterface(
    "PreprocessingService", 0x0A02,
    events=[
        Event("frame", 0x8001, data=FRAME_SPEC.fields),
        Event("lane", 0x8002, data=LANE_SPEC.fields),
    ],
)
CV_SERVICE = ServiceInterface(
    "ComputerVisionService", 0x0A03,
    events=[Event("vehicles", 0x8001, data=VEHICLES_SPEC.fields)],
)
EBA_SERVICE = ServiceInterface(
    "EbaService", 0x0A04,
    events=[Event("brake", 0x8001, data=BRAKE_SPEC.fields)],
)

#: Host names of the evaluation boards.
VISION_ECU = "vision-ecu"
FUSION_ECU = "fusion-ecu"
#: Second processing board (distributed extension deployments only).
FUSION2_ECU = "fusion2-ecu"


def brake_recipe(scenario: BrakeScenario):
    """The world recipe: the paper's testbed (Figure 4), or its extension.

    A vision board (calm under ``deterministic_camera``) and a fusion
    board on one switch; ``distributed`` adds a second processing board
    whose clock runs ``processing_clock_skew_ns`` off.
    """
    vision_config = CALM if scenario.deterministic_camera else MINNOWBOARD
    hosts = [(VISION_ECU, vision_config), (FUSION_ECU, MINNOWBOARD)]
    if scenario.distributed:
        skewed = PlatformConfig(
            num_cores=MINNOWBOARD.num_cores,
            clock=ClockModel(offset_ns=scenario.processing_clock_skew_ns),
            dispatch_jitter_ns=MINNOWBOARD.dispatch_jitter_ns,
            timer_jitter_ns=MINNOWBOARD.timer_jitter_ns,
        )
        hosts.append((FUSION2_ECU, skewed))
    return hosts, None, None


def start_camera(
    world: World, scenario: BrakeScenario, send_times: dict[int, int]
) -> SceneGenerator:
    """The Video Provider: a thread on platform 1 streaming frames.

    Records the global send time of each frame in *send_times* (used by
    end-to-end latency measurements).
    """
    platform = world.platform(VISION_ECU)
    nic: NetworkInterface = platform.attachments["nic"]
    socket = nic.bind()
    generator = SceneGenerator(scenario.period_ns, scenario.variant)
    jitter_rng = world.rng.stream("camera.jitter")

    def camera_thread():
        for seq in range(scenario.n_frames):
            target = scenario.warmup_ns + seq * scenario.period_ns
            if not scenario.deterministic_camera and scenario.camera_jitter_ns:
                target += jitter_rng.randint(0, scenario.camera_jitter_ns)
            yield SleepUntil(target)
            frame = generator.frame(seq)
            payload = FRAME_SPEC.to_bytes(frame_to_wire(frame))
            send_times[seq] = world.sim.now
            o = obs_context.ACTIVE
            flows = o.flows if o.enabled else None
            if flows is not None:
                flows.begin(seq, world.sim.now)
            socket.send(
                FUSION_ECU,
                ADAPTER_RAW_PORT,
                payload,
                len(payload) + scenario.frame_extra_bytes,
            )
            if flows is not None:
                flows.restore_current(None)

    platform.spawn("camera", camera_thread())
    return generator


def run_nondet_brake_assistant(
    seed: int,
    scenario: BrakeScenario | None = None,
    switch_config: SwitchConfig | None = None,
    fault_plan=None,
    fault_replay=None,
    fault_universe=None,
    fault_checkpointer=None,
) -> BrakeRunResult:
    """Run the stock brake assistant once; returns measurements."""
    scenario = scenario or BrakeScenario()
    world = registry.get("brake").build_world(
        seed, scenario, switch_config, fault_plan,
        fault_replay, fault_universe, fault_checkpointer,
    )
    fusion: Platform = world.platform(FUSION_ECU)
    errors = ErrorCounters()
    commands: dict[int, Any] = {}
    latencies: dict[int, int] = {}
    send_times: dict[int, int] = {}
    use_image = scenario.use_image_pipeline

    # ---- Video Adapter -----------------------------------------------------
    adapter_process = AraProcess(fusion, "adapter")
    adapter_skeleton = adapter_process.create_skeleton(ADAPTER_SERVICE, 1)
    adapter_skeleton.offer()
    adapter_buffer = OneSlotBuffer("adapter.in", sim=world.sim)
    nic: NetworkInterface = fusion.attachments["nic"]
    raw_socket = nic.bind(ADAPTER_RAW_PORT)

    def on_raw_frame(frame_msg):
        frame = frame_from_wire(FRAME_SPEC.from_bytes(frame_msg.payload))
        adapter_buffer.write(frame)

    raw_socket.on_receive = on_raw_frame
    adapter_rng = world.rng.stream("exec.adapter")

    def adapter_body():
        late = spike(world, "adapter", scenario)
        if late:
            yield Compute(late)
        frame = adapter_buffer.read()
        if frame is None:
            return
        yield Compute(scenario.adapter.sample(adapter_rng))
        adapter_skeleton.send_event("frame", frame_to_wire(frame))

    fusion.periodic(
        "adapter", scenario.period_ns, adapter_body,
        offset_ns=random_offset(world, "adapter", scenario.period_ns),
        start_delay_ns=scenario.warmup_ns // 2,
    )

    # ---- Preprocessing -------------------------------------------------------
    pre_process = AraProcess(fusion, "preprocessing")
    pre_skeleton = pre_process.create_skeleton(PREPROCESSING_SERVICE, 1)
    pre_skeleton.offer()
    pre_buffer = OneSlotBuffer("preprocessing.in", sim=world.sim)
    pre_rng = world.rng.stream("exec.preprocessing")

    pre_copy_rng = world.rng.stream("copy.preprocessing")

    def pre_setup():
        proxy = yield from pre_process.find_service(ADAPTER_SERVICE, 1)

        def on_frame(data):
            yield Compute(scenario.frame_copy_cost.sample(pre_copy_rng))
            pre_buffer.write(frame_from_wire(data))

        proxy.subscribe("frame", on_frame)

    pre_process.spawn("setup", pre_setup())

    def pre_body():
        late = spike(world, "preprocessing", scenario)
        if late:
            yield Compute(late)
        frame = pre_buffer.read()
        if frame is None:
            return
        yield Compute(scenario.preprocessing.sample(pre_rng))
        lane = preprocess(frame, use_image=use_image)
        pre_skeleton.send_event("frame", frame_to_wire(frame))
        pre_skeleton.send_event("lane", lane_to_wire(lane))

    fusion.periodic(
        "preprocessing", scenario.period_ns, pre_body,
        offset_ns=random_offset(world, "preprocessing", scenario.period_ns),
        start_delay_ns=scenario.warmup_ns // 2,
    )

    # ---- Computer Vision ---------------------------------------------------------
    cv_process = AraProcess(fusion, "computer-vision")
    cv_skeleton = cv_process.create_skeleton(CV_SERVICE, 1)
    cv_skeleton.offer()
    cv_frame_buffer = OneSlotBuffer("cv.frame", sim=world.sim)
    cv_lane_buffer = OneSlotBuffer("cv.lane", sim=world.sim)
    cv_rng = world.rng.stream("exec.cv")

    cv_copy_rng = world.rng.stream("copy.cv")

    def cv_setup():
        proxy = yield from cv_process.find_service(PREPROCESSING_SERVICE, 1)

        def on_frame(data):
            yield Compute(scenario.frame_copy_cost.sample(cv_copy_rng))
            cv_frame_buffer.write(frame_from_wire(data))

        proxy.subscribe("frame", on_frame)
        proxy.subscribe(
            "lane", lambda data: cv_lane_buffer.write(lane_from_wire(data))
        )

    cv_process.spawn("setup", cv_setup())

    def cv_body():
        late = spike(world, "computer-vision", scenario)
        if late:
            yield Compute(late)
        frame = cv_frame_buffer.read()
        lane = cv_lane_buffer.read()
        if frame is None and lane is None:
            return
        if frame is None or lane is None:
            # The companion input never made it into the buffer in time;
            # nothing sensible to compute this activation.
            return
        if frame.seq != lane.frame_seq:
            errors.mismatch_computer_vision += 1
        yield Compute(scenario.computer_vision.sample(cv_rng))
        vehicles = detect_vehicles(frame, lane, use_image=use_image)
        cv_skeleton.send_event("vehicles", vehicles_to_wire(vehicles))

    fusion.periodic(
        "computer-vision", scenario.period_ns, cv_body,
        offset_ns=random_offset(world, "computer-vision", scenario.period_ns),
        start_delay_ns=scenario.warmup_ns // 2,
    )

    # ---- EBA ------------------------------------------------------------------------
    eba_process = AraProcess(fusion, "eba")
    eba_skeleton = eba_process.create_skeleton(EBA_SERVICE, 1)
    eba_skeleton.offer()
    eba_buffer = OneSlotBuffer("eba.in", sim=world.sim)
    eba_rng = world.rng.stream("exec.eba")

    def eba_setup():
        proxy = yield from eba_process.find_service(CV_SERVICE, 1)
        proxy.subscribe(
            "vehicles", lambda data: eba_buffer.write(vehicles_from_wire(data))
        )

    eba_process.spawn("setup", eba_setup())

    def eba_body():
        late = spike(world, "eba", scenario)
        if late:
            yield Compute(late)
        vehicles = eba_buffer.read()
        if vehicles is None:
            return
        yield Compute(scenario.eba.sample(eba_rng))
        command = decide_brake(vehicles)
        commands[command.frame_seq] = command
        sent = send_times.get(command.frame_seq)
        if sent is not None:
            latencies[command.frame_seq] = world.sim.now - sent
        o = obs_context.ACTIVE
        if o.enabled and o.flows is not None:
            o.flows.deliver(command.frame_seq, world.sim.now)
        eba_skeleton.send_event("brake", {
            "frame_seq": command.frame_seq,
            "brake": command.brake,
            "intensity": command.intensity,
        })

    fusion.periodic(
        "eba", scenario.period_ns, eba_body,
        offset_ns=random_offset(world, "eba", scenario.period_ns),
        start_delay_ns=scenario.warmup_ns // 2,
    )

    # ---- run -------------------------------------------------------------------------
    start_camera(world, scenario, send_times)
    world.run_for(scenario.total_duration_ns())

    errors.dropped_adapter = adapter_buffer.drops
    errors.dropped_preprocessing = pre_buffer.drops
    errors.dropped_computer_vision = cv_frame_buffer.drops
    errors.dropped_eba = eba_buffer.drops
    return BrakeRunResult(
        seed=seed,
        n_frames=scenario.n_frames,
        errors=errors,
        commands=commands,
        latencies_ns=latencies,
        fault_summary=world.fault_summary,
    )
