"""Extension experiments beyond the paper's evaluation.

The paper evaluates on one demonstrator with both processing SWCs on a
single platform (``E = 0``) and fixed deadlines.  These experiments
probe the parts of the design the paper only argues about:

* :func:`clock_skew_sweep` — the role of the clock-synchronization
  error bound ``E`` in ``t + D + L + E``: under-estimating the actual
  skew produces (counted) safe-to-process violations, covering it
  restores clean tag-order delivery;
* :func:`pipeline_scaling` — end-to-end logical latency of a DEAR
  event chain as a function of pipeline depth: exactly
  ``depth x (D + L + E)`` per the composition rule, confirming the
  latency model used in Section IV.B generalizes;
* the **native tag transport** (SOME/IP protocol v2 — the standard
  extension the paper's conclusion advocates) is exercised by
  :func:`native_transport_comparison`, which checks behavioural
  equivalence and measures the wire-size saving over the trailer
  workaround;
* :func:`distributed_brake` — the brake assistant with its processing
  SWCs on two ECUs, one of them on a skewed clock, under assumed
  clock-error bounds that do and do not cover the skew.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from repro.analysis.report import render_table
from repro.harness.config import ScenarioSpec
from repro.harness.sweep import SweepRunner
from repro.ara import AraProcess, Event, Method, ServiceInterface, build_world
from repro.dear import (
    ClientEventTransactor,
    ServerEventTransactor,
    StpConfig,
    TransactorConfig,
)
from repro.network import ConstantLatency, SwitchConfig
from repro.reactors import Environment, Reactor
from repro.sim.platform import CALM, PlatformConfig
from repro.someip.serialization import INT32
from repro.time import ClockModel, MS, SEC

#: The extensions' two-ECU LAN: a constant 1 ms hop, no serialization
#: delay, so logical-time arithmetic shows no physical noise.
_PULSE_LAN = SwitchConfig(latency=ConstantLatency(1 * MS), ns_per_byte=0)


def _pulse_interface(service_id: int, name: str = "Pulse") -> ServiceInterface:
    return ServiceInterface(
        name, service_id,
        methods=[Method("noop", 1)],
        events=[Event("pulse", 0x8001, data=[("n", INT32)])],
    )


class _Publisher(Reactor):
    def __init__(self, name, owner, count, period=20 * MS, offset=400 * MS):
        super().__init__(name, owner)
        self.out = self.output("out")
        tick = self.timer("tick", offset=offset, period=period)
        self.n = 0

        def fire(ctx):
            if self.n < count:
                self.n += 1
                ctx.set(self.out, self.n)

        self.reaction("fire", triggers=[tick], effects=[self.out], body=fire)


class _Subscriber(Reactor):
    def __init__(self, name, owner, ticking=True):
        super().__init__(name, owner)
        self.inp = self.input("inp")
        self.received = []
        if ticking:
            self.timer("local", offset=0, period=1 * MS)
        self.reaction(
            "recv", triggers=[self.inp],
            body=lambda ctx: self.received.append((ctx.tag, ctx.get(self.inp))),
        )


# ---------------------------------------------------------------------------
# EXT-SKEW — clock synchronization error.
# ---------------------------------------------------------------------------


@dataclass
class SkewPoint:
    """One (actual skew, assumed E) configuration."""

    actual_skew_ns: int
    assumed_error_ns: int
    stp_violations: int
    delivered: int
    in_order: bool


@dataclass
class ClockSkewResult:
    """The EXT-SKEW sweep."""

    points: list[SkewPoint]
    count: int

    def render(self) -> str:
        rows = [
            [
                f"{point.actual_skew_ns / 1e6:.0f} ms",
                f"{point.assumed_error_ns / 1e6:.0f} ms",
                str(point.stp_violations),
                f"{point.delivered}/{self.count}",
                "yes" if point.in_order else "NO",
            ]
            for point in self.points
        ]
        return render_table(
            ["actual skew", "assumed E", "STP violations", "delivered",
             "tag order kept"],
            rows,
            title="EXT-SKEW - clock-sync error bound E in t + D + L + E:",
        )


def _pulse_chain(
    world, interface, config, count, transport="trailer", origin=None, ticking=True
):
    """Publish *count* pulses from ``pub-ecu`` to ``sub-ecu`` for 5 s.

    Publisher -> server event transactor on one ECU, client event
    transactor -> subscriber on the other, both processes speaking
    *transport* and both environments tracing against *origin*.
    Returns ``(subscriber, its environment, the client transactor)``.
    """
    pub, sub = world.platform("pub-ecu"), world.platform("sub-ecu")
    server_process = AraProcess(pub, "pub", tag_aware=True, tag_transport=transport)
    server_env = Environment(name="pub", timeout=2 * SEC, trace_origin=origin)
    publisher = _Publisher("publisher", server_env, count)
    skeleton = server_process.create_skeleton(interface, 1)
    skeleton.implement("noop", lambda: None)
    tx = ServerEventTransactor(
        "tx", server_env, server_process, skeleton, "pulse", config
    )
    server_env.connect(publisher.out, tx.inp)
    skeleton.offer()
    server_env.start(pub)

    client_process = AraProcess(sub, "sub", tag_aware=True, tag_transport=transport)
    client_env = Environment(name="sub", timeout=3 * SEC, trace_origin=origin)
    subscriber = _Subscriber("subscriber", client_env, ticking)
    holder = {}

    def setup():
        proxy = yield from client_process.find_service(interface, 1)
        rx = ClientEventTransactor(
            "rx", client_env, client_process, proxy, "pulse", config
        )
        client_env.connect(rx.out, subscriber.inp)
        client_env.start(sub)
        holder["rx"] = rx

    client_process.spawn("setup", setup())
    world.run_for(5 * SEC)
    return subscriber, client_env, holder["rx"]


def _skew_point(
    configuration, count: int, latency_bound_ns: int = 2 * MS
) -> SkewPoint:
    """One (actual skew, assumed E) configuration (runs in a worker)."""
    actual_skew, assumed_error = configuration
    interface = _pulse_interface(0x5200)
    skewed = PlatformConfig(
        num_cores=1,
        clock=ClockModel(offset_ns=actual_skew),
        dispatch_jitter_ns=0,
        timer_jitter_ns=0,
    )
    world = build_world(0, [("pub-ecu", CALM), ("sub-ecu", skewed)], _PULSE_LAN)
    config = TransactorConfig(
        deadline_ns=5 * MS,
        stp=StpConfig(
            latency_bound_ns=latency_bound_ns, clock_error_ns=assumed_error
        ),
    )
    subscriber, _, rx = _pulse_chain(world, interface, config, count)
    tags = [tag for tag, _ in subscriber.received]
    return SkewPoint(
        actual_skew_ns=actual_skew,
        assumed_error_ns=assumed_error,
        stp_violations=rx.stp_violations,
        delivered=len(subscriber.received),
        in_order=tags == sorted(tags),
    )


def clock_skew_sweep(
    configurations: list[tuple[int, int]] | None = None,
    count: int = 12,
    sweep: SweepRunner | None = None,
    spec: ScenarioSpec | None = None,
) -> ClockSkewResult:
    """Sweep (actual skew, assumed E) pairs over a two-ECU event chain.

    With *spec* carrying an :class:`StpConfig`, its ``L`` bound applies
    to every point and its ``E`` seeds the default configuration list.
    """
    latency_bound_ns = 2 * MS
    if spec is not None and spec.stp is not None:
        latency_bound_ns = spec.stp.latency_bound_ns
        if configurations is None:
            assumed = spec.stp.clock_error_ns
            configurations = [
                (0, assumed),
                (assumed, assumed),
                (2 * assumed + 10 * MS, assumed),
            ]
    if configurations is None:
        configurations = [
            (0, 0),
            (10 * MS, 0),
            (10 * MS, 12 * MS),
            (25 * MS, 12 * MS),
            (25 * MS, 30 * MS),
        ]
    sweep = sweep or SweepRunner()
    points = sweep.map(
        partial(_skew_point, count=count, latency_bound_ns=latency_bound_ns),
        configurations,
        name="ext-skew",
        params={"count": count, "latency_bound_ns": latency_bound_ns},
    )
    return ClockSkewResult(points, count)


# ---------------------------------------------------------------------------
# EXT-SCALE — pipeline depth vs. logical latency.
# ---------------------------------------------------------------------------


@dataclass
class ScalePoint:
    """One pipeline depth."""

    depth: int
    logical_latency_ns: int
    expected_ns: int


@dataclass
class PipelineScalingResult:
    """The EXT-SCALE sweep."""

    points: list[ScalePoint]
    hop_cost_ns: int

    def render(self) -> str:
        rows = [
            [
                str(point.depth),
                f"{point.logical_latency_ns / 1e6:.0f} ms",
                f"{point.expected_ns / 1e6:.0f} ms",
            ]
            for point in self.points
        ]
        return render_table(
            ["pipeline depth", "measured logical latency", "depth x (D+L+E)"],
            rows,
            title="EXT-SCALE - DEAR event-chain latency vs. depth:",
        )


def _scaling_point(
    depth: int, deadline_ns: int, latency_bound_ns: int
) -> ScalePoint:
    """One pipeline depth of the scaling sweep (runs in a worker)."""
    hop_cost = deadline_ns + latency_bound_ns
    config = TransactorConfig(
        deadline_ns=deadline_ns, stp=StpConfig(latency_bound_ns=latency_bound_ns)
    )
    switch_config = replace(_PULSE_LAN, loopback_latency=ConstantLatency(100_000))
    world = build_world(0, [("ecu-a", CALM), ("ecu-b", CALM)], switch_config)
    platforms = list(world.platforms.values())

    interfaces = [
        _pulse_interface(0x5300 + index, f"Hop{index}")
        for index in range(depth)
    ]
    start_tag = {}
    end_tags = []

    # Source SWC publishes into hop 0.
    source_platform = platforms[0]
    source_process = AraProcess(source_platform, "source", tag_aware=True)
    source_env = Environment(name="source", timeout=3 * SEC)
    publisher = _Publisher("publisher", source_env, count=3)
    source_skeleton = source_process.create_skeleton(interfaces[0], 1)
    source_skeleton.implement("noop", lambda: None)
    source_tx = ServerEventTransactor(
        "tx", source_env, source_process, source_skeleton, "pulse", config
    )

    class _Tap(Reactor):
        """Records the tag at which each pulse leaves the source."""

        def __init__(self, name, owner):
            super().__init__(name, owner)
            self.inp = self.input("inp")
            self.out = self.output("out")

            def tap(ctx):
                start_tag[ctx.get(self.inp)] = ctx.tag.time
                ctx.set(self.out, ctx.get(self.inp))

            self.reaction("tap", triggers=[self.inp], effects=[self.out],
                          body=tap)

    tap = _Tap("tap", source_env)
    source_env.connect(publisher.out, tap.inp)
    source_env.connect(tap.out, source_tx.inp)
    source_skeleton.offer()
    source_env.start(source_platform)

    # Forwarding SWCs: hop i subscribes to interface i, publishes i+1.
    def make_forwarder(index):
        platform = platforms[(index + 1) % 2]
        process = AraProcess(platform, f"hop{index}", tag_aware=True)
        env = Environment(name=f"hop{index}", timeout=3 * SEC)
        is_last = index == depth - 1

        class Forwarder(Reactor):
            def __init__(self, name, owner):
                super().__init__(name, owner)
                self.inp = self.input("inp")
                self.out = self.output("out")

                def forward(ctx):
                    value = ctx.get(self.inp)
                    if is_last:
                        end_tags.append((value, ctx.tag.time))
                    else:
                        ctx.set(self.out, value)

                self.reaction("fwd", triggers=[self.inp],
                              effects=[self.out], body=forward)

        forwarder = Forwarder("logic", env)
        if not is_last:
            skeleton = process.create_skeleton(interfaces[index + 1], 1)
            skeleton.implement("noop", lambda: None)
            tx = ServerEventTransactor(
                "tx", env, process, skeleton, "pulse", config
            )
            env.connect(forwarder.out, tx.inp)
            skeleton.offer()

        def setup():
            proxy = yield from process.find_service(interfaces[index], 1)
            rx = ClientEventTransactor(
                "rx", env, process, proxy, "pulse", config
            )
            env.connect(rx.out, forwarder.inp)
            env.start(platform)

        process.spawn("setup", setup())

    for index in range(depth):
        make_forwarder(index)
    world.run_for(6 * SEC)
    if not end_tags or not start_tag:
        raise RuntimeError(f"pipeline of depth {depth} produced no output")
    value, end_time = end_tags[0]
    latency = end_time - start_tag[value]
    return ScalePoint(
        depth=depth, logical_latency_ns=latency, expected_ns=depth * hop_cost
    )


def pipeline_scaling(
    depths: list[int] | None = None,
    deadline_ns: int = 5 * MS,
    latency_bound_ns: int = 5 * MS,
    sweep: SweepRunner | None = None,
    spec: ScenarioSpec | None = None,
) -> PipelineScalingResult:
    """Measure logical end-to-end latency of DEAR chains of varying depth.

    Every hop is a full SWC boundary: its own AP process, service,
    server event transactor and (downstream) client event transactor,
    alternating between two ECUs so half the hops cross the network.
    With *spec* carrying an :class:`StpConfig`, its ``L`` bound is the
    per-hop latency bound.
    """
    if spec is not None and spec.stp is not None:
        latency_bound_ns = spec.stp.latency_bound_ns
    if depths is None:
        depths = [1, 2, 4, 6]
    sweep = sweep or SweepRunner()
    points = sweep.map(
        partial(
            _scaling_point,
            deadline_ns=deadline_ns,
            latency_bound_ns=latency_bound_ns,
        ),
        depths,
        name="ext-scale",
        params={"deadline_ns": deadline_ns, "latency_bound_ns": latency_bound_ns},
    )
    return PipelineScalingResult(points, deadline_ns + latency_bound_ns)


# ---------------------------------------------------------------------------
# EXT-NATIVE — the advocated standard extension vs. the workaround.
# ---------------------------------------------------------------------------


@dataclass
class NativeTransportResult:
    """Behavioural equivalence + wire cost of the two tag encodings."""

    behaviour_identical: bool
    trailer_bytes: int
    native_bytes: int

    def render(self) -> str:
        rows = [
            ["trailer (paper's workaround)", str(self.trailer_bytes)],
            ["native v2 field (proposed extension)", str(self.native_bytes)],
        ]
        table = render_table(
            ["tag encoding", "bytes per tagged message"],
            rows,
            title="EXT-NATIVE - standard extension vs. workaround:",
        )
        return table + (
            f"\n  behaviourally identical: {self.behaviour_identical}"
        )


def _run_encoding_chain(transport: str) -> str:
    """One pulse chain with the given tag encoding; returns its trace."""
    interface = _pulse_interface(0x5400, "EncodingPulse")
    world = build_world(0, [("pub-ecu", CALM), ("sub-ecu", CALM)], _PULSE_LAN)
    config = TransactorConfig(
        deadline_ns=5 * MS, stp=StpConfig(latency_bound_ns=5 * MS)
    )
    _, client_env, _ = _pulse_chain(
        world, interface, config, 4, transport, origin=0, ticking=False
    )
    return client_env.trace.fingerprint()


def native_transport_comparison(
    sweep: SweepRunner | None = None,
) -> NativeTransportResult:
    """Compare the two tag encodings: behaviour and wire cost."""
    from repro.someip import MessageType, SomeIpHeader, SomeIpMessage
    from repro.someip.tagging import attach_tag
    from repro.time import Tag

    sweep = sweep or SweepRunner()
    trailer_trace, native_trace = sweep.map(
        _run_encoding_chain, ["trailer", "native"], name="ext-native"
    )
    behaviour_identical = trailer_trace == native_trace
    header = SomeIpHeader(
        service_id=1, method_id=0x8001, client_id=0, session_id=1,
        message_type=MessageType.NOTIFICATION,
    )
    payload = b"\x00" * 16
    tag = Tag(123 * MS, 0)
    trailer = SomeIpMessage(header, attach_tag(payload, tag)).size_bytes
    native = SomeIpMessage(header, payload, native_tag=tag).size_bytes
    return NativeTransportResult(
        behaviour_identical=behaviour_identical,
        trailer_bytes=trailer,
        native_bytes=native,
    )


# ---------------------------------------------------------------------------
# EXT-DIST — the brake assistant across two processing ECUs.
# ---------------------------------------------------------------------------


@dataclass
class DistributedResult:
    """The EXT-DIST table: ``(skew, assumed E, STP violations, frames
    answered)`` per clock configuration."""

    rows: list[tuple[int, int, int, int]]
    frames: int

    def render(self) -> str:
        rows = [
            [f"{skew / 1e6:.0f} ms", f"{error / 1e6:.0f} ms", str(violations),
             f"{answered}/{self.frames}"]
            for skew, error, violations, answered in self.rows
        ]
        return render_table(
            ["clock skew", "assumed E", "STP violations", "frames answered"],
            rows,
            title="EXT-DIST - distributed brake assistant:",
        )


def _distributed_point(configuration, frames: int):
    """One (skew, assumed E) distributed run (runs in a worker)."""
    from repro.apps.brake import BrakeScenario, run_det_brake_assistant

    skew, error = configuration
    scenario = BrakeScenario(
        n_frames=frames, distributed=True,
        processing_clock_skew_ns=skew, clock_error_ns=error,
    )
    return run_det_brake_assistant(0, scenario)


def distributed_brake(
    n_frames: int = 200, sweep: SweepRunner | None = None
) -> DistributedResult:
    """No skew, a 15 ms skew that ``E = 0`` does not cover, and a 20 ms
    skew under ``E = 25 ms``."""
    configurations = [(0, 0), (15 * MS, 0), (20 * MS, 25 * MS)]
    runs = (sweep or SweepRunner()).map(
        partial(_distributed_point, frames=n_frames),
        configurations,
        name="ext-dist",
        params={"frames": n_frames},
    )
    return DistributedResult(
        [(*config, run.stp_violations, len(run.commands))
         for config, run in zip(configurations, runs)],
        n_frames,
    )
