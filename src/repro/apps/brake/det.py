"""The deterministic brake assistant (Section IV.B) — DEAR.

The same five-stage pipeline, with each SWC's logic encapsulated in a
reactor and the inter-SWC communication running through DEAR
transactors over the same SOME/IP services as the stock variant:

* **Video Adapter** has no well-defined input: frames arrive
  sporadically over the proprietary protocol, so it is a *sensor* — a
  physical action tagged with the physical time of message reception;
* every other stage consumes tagged events and produces tagged events;
  safe-to-process waits (``t + D + L + E``) keep everything in tag
  order;
* deadlines follow the paper: 5 ms (Video Adapter), 25 ms
  (Preprocessing), 25 ms (Computer Vision), 5 ms (EBA), with an assumed
  communication latency bound of 5 ms and no clock-sync error (all
  processing SWCs share one platform);
* Computer Vision requires its two inputs to carry the same tag;
  anything else is counted as an observable error (none occur when the
  deadline/latency assumptions hold).
"""

from __future__ import annotations

from repro.ara import AraProcess
from repro.apps import registry
from repro.apps.brake.data import (
    FRAME_SPEC,
    frame_from_wire,
    frame_to_wire,
    lane_to_wire,
    lane_from_wire,
    vehicles_from_wire,
    vehicles_to_wire,
    brake_to_wire,
)
from repro.apps.brake.instrumentation import BrakeRunResult, ErrorCounters
from repro.apps.brake.logic import decide_brake, detect_vehicles, preprocess
from repro.apps.brake.nondet import (
    ADAPTER_RAW_PORT,
    ADAPTER_SERVICE,
    CV_SERVICE,
    EBA_SERVICE,
    FUSION_ECU,
    FUSION2_ECU,
    PREPROCESSING_SERVICE,
    start_camera,
)
from repro.apps.brake.scenario import BrakeScenario
from repro.apps.lib.common import RunLedger
from repro.dear import ClientEventTransactor, ServerEventTransactor
from repro.network import NetworkInterface
from repro.reactors import Reactor
from repro.time.duration import SEC


class _AdapterLogic(Reactor):
    """Video Adapter: sporadic sensor -> tagged frame events."""

    def __init__(self, name, owner, scenario: BrakeScenario):
        super().__init__(name, owner)
        self.frame_arrival = self.physical_action("frame_arrival")
        self.out = self.output("out")
        self.reaction(
            "forward",
            triggers=[self.frame_arrival],
            effects=[self.out],
            body=lambda ctx: ctx.set(self.out, ctx.get(self.frame_arrival)),
            exec_time=lambda rng: scenario.adapter.sample(rng),
        )


class _PreprocessingLogic(Reactor):
    """Preprocessing: frame -> (forwarded frame, lane box)."""

    def __init__(self, name, owner, scenario: BrakeScenario):
        super().__init__(name, owner)
        self.frame_in = self.input("frame_in")
        self.frame_out = self.output("frame_out")
        self.lane_out = self.output("lane_out")
        self.processed = 0
        use_image = scenario.use_image_pipeline

        def work(ctx):
            frame = frame_from_wire(ctx.get(self.frame_in))
            lane = preprocess(frame, use_image=use_image)
            self.processed += 1
            ctx.set(self.frame_out, frame_to_wire(frame))
            ctx.set(self.lane_out, lane_to_wire(lane))

        self.reaction(
            "work",
            triggers=[self.frame_in],
            effects=[self.frame_out, self.lane_out],
            body=work,
            exec_time=lambda rng: scenario.preprocessing.sample(rng),
        )


class _ComputerVisionLogic(Reactor):
    """Computer Vision: expects frame and lane with the *same tag*."""

    def __init__(self, name, owner, scenario: BrakeScenario, errors: ErrorCounters):
        super().__init__(name, owner)
        self.frame_in = self.input("frame_in")
        self.lane_in = self.input("lane_in")
        self.vehicles_out = self.output("vehicles_out")
        self.processed = 0
        use_image = scenario.use_image_pipeline

        def work(ctx):
            have_frame = ctx.is_present(self.frame_in)
            have_lane = ctx.is_present(self.lane_in)
            if not (have_frame and have_lane):
                # One-sided input at a tag: an observable alignment error.
                errors.mismatch_computer_vision += 1
                return
            frame = frame_from_wire(ctx.get(self.frame_in))
            lane = lane_from_wire(ctx.get(self.lane_in))
            if frame.seq != lane.frame_seq:
                errors.mismatch_computer_vision += 1
                return
            vehicles = detect_vehicles(frame, lane, use_image=use_image)
            self.processed += 1
            ctx.set(self.vehicles_out, vehicles_to_wire(vehicles))

        self.reaction(
            "work",
            triggers=[self.frame_in, self.lane_in],
            effects=[self.vehicles_out],
            body=work,
            exec_time=lambda rng: scenario.computer_vision.sample(rng),
        )


class _EbaLogic(Reactor):
    """EBA: vehicles -> brake command."""

    def __init__(self, name, owner, scenario, ledger: RunLedger):
        super().__init__(name, owner)
        self.vehicles_in = self.input("vehicles_in")
        self.brake_out = self.output("brake_out")

        def work(ctx):
            vehicles = vehicles_from_wire(ctx.get(self.vehicles_in))
            command = decide_brake(vehicles)
            ledger.sink(command.frame_seq, command)
            ctx.set(self.brake_out, brake_to_wire(command))

        self.reaction(
            "work",
            triggers=[self.vehicles_in],
            effects=[self.brake_out],
            body=work,
            exec_time=lambda rng: scenario.eba.sample(rng),
        )


def run_det_brake_assistant(
    seed: int,
    scenario: BrakeScenario | None = None,
    switch_config=None,
    fault_plan=None,
) -> BrakeRunResult:
    """Run the DEAR brake assistant once; returns measurements."""
    scenario = scenario or BrakeScenario()
    world = registry.get("brake").build_world(
        seed, scenario, switch_config, fault_plan
    )
    fusion = world.platform(FUSION_ECU)
    # Distributed extension: the back half of the pipeline runs on a
    # second (possibly clock-skewed) processing board.
    back_end = world.platform(FUSION2_ECU) if scenario.distributed else fusion
    errors = ErrorCounters()
    ledger = RunLedger(world, scenario, errors)

    # ---- Video Adapter -------------------------------------------------------
    adapter_process = AraProcess(fusion, "adapter", tag_aware=True)
    adapter_env = ledger.environment("adapter")
    adapter_logic = _AdapterLogic("logic", adapter_env, scenario)
    adapter_skeleton = adapter_process.create_skeleton(ADAPTER_SERVICE, 1)
    adapter_tx = ledger.transactor(
        ServerEventTransactor, "frame_tx", adapter_env, adapter_process,
        adapter_skeleton, "frame", scenario.adapter_deadline_ns,
    )
    adapter_env.connect(adapter_logic.out, adapter_tx.inp)
    adapter_skeleton.offer()

    nic: NetworkInterface = fusion.attachments["nic"]
    raw_socket = nic.bind(ADAPTER_RAW_PORT)
    raw_socket.on_receive = lambda msg: adapter_logic.frame_arrival.schedule(
        FRAME_SPEC.from_bytes(msg.payload)
    )
    adapter_env.start(fusion)

    # ---- Preprocessing ---------------------------------------------------------
    pre_process = AraProcess(fusion, "preprocessing", tag_aware=True)
    pre_env = ledger.environment("preprocessing")
    pre_logic = _PreprocessingLogic("logic", pre_env, scenario)
    pre_skeleton = pre_process.create_skeleton(PREPROCESSING_SERVICE, 1)
    pre_deadline = scenario.preprocessing_deadline_ns
    pre_frame_tx = ledger.transactor(
        ServerEventTransactor, "frame_tx", pre_env, pre_process, pre_skeleton, "frame",
        pre_deadline,
    )
    pre_lane_tx = ledger.transactor(
        ServerEventTransactor, "lane_tx", pre_env, pre_process, pre_skeleton, "lane",
        pre_deadline,
    )
    pre_env.connect(pre_logic.frame_out, pre_frame_tx.inp)
    pre_env.connect(pre_logic.lane_out, pre_lane_tx.inp)
    pre_skeleton.offer()

    def pre_setup():
        proxy = yield from pre_process.find_service(ADAPTER_SERVICE, 1)
        frame_rx = ledger.transactor(
            ClientEventTransactor, "frame_rx", pre_env, pre_process, proxy, "frame",
            scenario.adapter_deadline_ns,
        )
        pre_env.connect(frame_rx.out, pre_logic.frame_in)
        pre_env.start(fusion)

    pre_process.spawn("setup", pre_setup())

    # ---- Computer Vision -----------------------------------------------------------
    cv_process = AraProcess(back_end, "computer-vision", tag_aware=True)
    cv_env = ledger.environment("computer-vision")
    cv_logic = _ComputerVisionLogic("logic", cv_env, scenario, errors)
    cv_skeleton = cv_process.create_skeleton(CV_SERVICE, 1)
    cv_tx = ledger.transactor(
        ServerEventTransactor, "vehicles_tx", cv_env, cv_process, cv_skeleton,
        "vehicles", scenario.computer_vision_deadline_ns,
    )
    cv_env.connect(cv_logic.vehicles_out, cv_tx.inp)
    cv_skeleton.offer()

    def cv_setup():
        proxy = yield from cv_process.find_service(PREPROCESSING_SERVICE, 1)
        frame_rx = ledger.transactor(
            ClientEventTransactor, "frame_rx", cv_env, cv_process, proxy, "frame",
            pre_deadline,
        )
        lane_rx = ledger.transactor(
            ClientEventTransactor, "lane_rx", cv_env, cv_process, proxy, "lane",
            pre_deadline,
        )
        cv_env.connect(frame_rx.out, cv_logic.frame_in)
        cv_env.connect(lane_rx.out, cv_logic.lane_in)
        cv_env.start(back_end)

    cv_process.spawn("setup", cv_setup())

    # ---- EBA -------------------------------------------------------------------------
    eba_process = AraProcess(back_end, "eba", tag_aware=True)
    eba_env = ledger.environment("eba")
    eba_logic = _EbaLogic("logic", eba_env, scenario, ledger)
    eba_skeleton = eba_process.create_skeleton(EBA_SERVICE, 1)
    eba_tx = ledger.transactor(
        ServerEventTransactor, "brake_tx", eba_env, eba_process, eba_skeleton, "brake",
        scenario.eba_deadline_ns,
    )
    eba_env.connect(eba_logic.brake_out, eba_tx.inp)
    eba_skeleton.offer()

    def eba_setup():
        proxy = yield from eba_process.find_service(CV_SERVICE, 1)
        vehicles_rx = ledger.transactor(
            ClientEventTransactor, "vehicles_rx", eba_env, eba_process, proxy,
            "vehicles", scenario.computer_vision_deadline_ns,
        )
        eba_env.connect(vehicles_rx.out, eba_logic.vehicles_in)
        eba_env.start(back_end)

    eba_process.spawn("setup", eba_setup())

    # ---- run -------------------------------------------------------------------------
    start_camera(ledger)
    world.run_for(scenario.total_duration_ns() + 1 * SEC)
    return ledger.result()
