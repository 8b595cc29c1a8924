"""A store-and-forward switch connecting the platforms.

Frames are addressed ``(host, port) -> (host, port)``.  The switch draws
a transport delay per frame from its latency models, optionally enforces
per-flow FIFO (TCP-like) ordering, and can drop frames with a configured
probability.  Same-host traffic takes a loopback path with its own
(small) latency model — local SOME/IP communication still costs time, as
it does through a real loopback interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.errors import NetworkError
from repro.network.latency import (
    ConstantLatency,
    GammaLatency,
    LatencyModel,
    UniformLatency,
)
from repro.network.topology import Route, TopologySpec
from repro.obs import context as obs_context
from repro.obs.bus import TRACK_NETWORK
from repro.obs.flows import (
    CAUSE_RANDOM_DROP,
    FAULT_DROP_CAUSES,
    LAYER_SWITCH,
    attribute_drop,
)
from repro.sim.core import Simulator
from repro.time.duration import US

if TYPE_CHECKING:
    from repro.network.stack import NetworkInterface


@dataclass(slots=True, eq=False)
class Frame:
    """One datagram in flight.

    Not frozen, so construction costs no per-field ``object.__setattr__``;
    nothing mutates a frame after :meth:`Socket.send` builds it (a
    corruption fault makes a new one with ``dataclasses.replace``).
    Equality and hashing are by identity, as the flow registry keys
    in-flight frames by ``id()``.
    """

    src_host: str
    src_port: int
    dst_host: str
    dst_port: int
    payload: Any
    size_bytes: int


@dataclass(frozen=True, slots=True)
class CorruptedPayload:
    """A payload mangled in flight by an injected corruption fault.

    Real NICs drop frames whose checksum fails; the receiving
    :class:`NetworkInterface` does the same (and counts it), so a
    corruption is observable loss — never silently delivered data.
    """

    original: Any


@dataclass(frozen=True, slots=True)
class SwitchConfig:
    """Behavioural knobs of the network.

    ``in_order`` selects per-flow FIFO delivery (a flow is one
    ``(src_host, dst_host)`` pair).  The paper notes AP does not formally
    require in-order delivery; both settings are therefore interesting.

    ``topology`` selects a multi-switch fabric (see
    :class:`~repro.network.topology.TopologySpec`).  ``None`` — or a
    trivial topology — keeps the legacy single-switch behaviour, draw
    for draw; a non-trivial fabric routes each frame hop by hop with
    per-link latency, serialization and output-queue contention.
    """

    latency: LatencyModel = field(
        default_factory=lambda: GammaLatency(base_ns=200 * US, scale_ns=50 * US)
    )
    loopback_latency: LatencyModel = field(
        default_factory=lambda: UniformLatency(10 * US, 80 * US)
    )
    in_order: bool = True
    drop_probability: float = 0.0
    #: Serialization delay per byte (8 ns/byte ~ 1 Gbit/s), applied per frame.
    ns_per_byte: int = 8
    topology: TopologySpec | None = None


#: The seed-fixed network: constant link and loopback latencies, so
#: physical arrival times are identical across world seeds.  The
#: default of ``deterministic_camera`` / ``deterministic_inputs``
#: scenarios.
CALM_LAN = SwitchConfig(
    latency=ConstantLatency(300 * US),
    loopback_latency=ConstantLatency(50 * US),
)


class Switch:
    """The network fabric: routes frames between registered interfaces."""

    def __init__(self, sim: Simulator, rng, config: SwitchConfig | None = None):
        self._sim = sim
        self._rng = rng
        self.config = config or SwitchConfig()
        topology = self.config.topology
        #: Non-trivial fabric, or ``None`` for the legacy hot path.
        self._fabric: TopologySpec | None = (
            topology if topology is not None and not topology.is_trivial else None
        )
        #: Resolved (src, dst) -> Route cache (routing is deterministic).
        self._routes: dict[tuple[str, str], Route] = {}
        #: Per-link output-queue horizon: when the link is next free.
        self._link_busy: dict[tuple[str, str], int] = {}
        self._interfaces: dict[str, "NetworkInterface"] = {}
        #: Last scheduled arrival per (src_host, dst_host) flow, for FIFO.
        self._flow_horizon: dict[tuple[str, str], int] = {}
        #: Installed fault injector (``repro.faults``), or ``None``.
        self._faults = None
        self.frames_sent = 0
        self.frames_dropped = 0
        self.total_bytes = 0

    def attach_faults(self, injector) -> None:
        """Install a fault injector consulted once per frame.

        The injector is asked *after* the latency draw, so installing a
        plan never perturbs the ``net`` stream's draw order — a dropped
        frame still consumes exactly the delay sample it would have used.
        """
        self._faults = injector

    def register(self, interface: "NetworkInterface") -> None:
        """Attach a platform's network interface to the switch."""
        if interface.host in self._interfaces:
            raise NetworkError(f"host {interface.host!r} already registered")
        if self._fabric is not None and interface.host not in self._fabric.nodes:
            raise NetworkError(
                f"host {interface.host!r} is not a node of the topology"
            )
        self._interfaces[interface.host] = interface

    def hosts(self) -> list[str]:
        """Names of the registered hosts."""
        return sorted(self._interfaces)

    def latency_bound(self) -> int:
        """Upper bound on one-way transport delay, for safe-to-process ``L``.

        Includes the serialization term for a generous frame size (1500 B
        MTU), so a configuration can use this directly as its ``L``.  On
        a fabric, the bound is the worst route's per-link sum (queueing
        waits excluded — see :mod:`repro.network.topology`).
        """
        loop = self.config.loopback_latency.bound() + 1500 * self.config.ns_per_byte
        if self._fabric is not None:
            return max(
                self._fabric.latency_bound(
                    self.config.latency, self.config.ns_per_byte
                ),
                loop,
            )
        wire = max(self.config.latency.bound(), self.config.loopback_latency.bound())
        return wire + 1500 * self.config.ns_per_byte

    def _drop(self, frame: Frame, label: str, cause: str, o) -> None:
        """Count a lost *frame*; observed, record it and attribute *cause*."""
        self.frames_dropped += 1
        if o is not None:
            o.metrics.counter("net.frames_dropped").inc()
            o.bus.instant(
                TRACK_NETWORK,
                f"{label} {frame.src_host}->{frame.dst_host}",
                self._sim.now,
                o.wall_ns(),
                dst_port=frame.dst_port,
                bytes=frame.size_bytes,
            )
            attribute_drop(o, LAYER_SWITCH, cause, self._sim.now)

    def send(self, frame: Frame) -> None:
        """Route *frame* to its destination host with a sampled delay."""
        destination = self._interfaces.get(frame.dst_host)
        if destination is None:
            raise NetworkError(f"unknown destination host {frame.dst_host!r}")
        self.frames_sent += 1
        self.total_bytes += frame.size_bytes
        o = obs_context.ACTIVE
        if o is not None:
            o.metrics.counter("net.frames_sent").inc()
        if (
            self.config.drop_probability > 0.0
            and self._rng.random() < self.config.drop_probability
        ):
            self._drop(frame, "drop", CAUSE_RANDOM_DROP, o)
            return
        route: Route | None = None
        if frame.src_host == frame.dst_host:
            delay = self.config.loopback_latency.sample(self._rng)
            delay += frame.size_bytes * self.config.ns_per_byte
        elif self._fabric is not None:
            delay, route = self._fabric_delay(frame)
        else:
            delay = self.config.latency.sample(self._rng)
            delay += frame.size_bytes * self.config.ns_per_byte
        # Faults are consulted after the latency draw(s) so the ``net``
        # stream's sequence is identical with and without a plan.
        verdict = None if self._faults is None else self._faults.on_send(
            frame, self._sim.now, route=route
        )
        if verdict is not None:
            if verdict.drop is not None:
                cause = FAULT_DROP_CAUSES.get(verdict.drop, verdict.drop)
                self._drop(frame, verdict.drop, cause, o)
                return
            if verdict.corrupt:
                frame = replace(frame, payload=CorruptedPayload(frame.payload))
            delay += verdict.extra_delay_ns
        arrival = self._sim.now + delay
        in_order = self.config.in_order and not (
            verdict is not None and verdict.bypass_fifo
        )
        if in_order:
            flow = (frame.src_host, frame.dst_host)
            horizon = self._flow_horizon.get(flow, 0)
            if arrival <= horizon:
                arrival = horizon + 1
            self._flow_horizon[flow] = arrival
        if o is not None:
            o.metrics.histogram("net.latency_ns").observe(arrival - self._sim.now)
            o.bus.span(
                TRACK_NETWORK,
                f"{frame.src_host}->{frame.dst_host}",
                self._sim.now,
                arrival,
                o.wall_ns(),
                bytes=frame.size_bytes,
                dst_port=frame.dst_port,
            )
            flows = o.flows
            if flows is not None and flows.current is not None:
                # Register the *final* frame object (after any corrupt
                # replacement); a duplicate verdict delivers the same
                # object twice, hence a second in-flight registration.
                flows.hop(
                    flows.current,
                    LAYER_SWITCH,
                    f"{frame.src_host}->{frame.dst_host}",
                    self._sim.now,
                )
                flows.frame_sent(frame, flows.current)
                if verdict is not None and verdict.duplicate_delay_ns is not None:
                    flows.frame_sent(frame, flows.current)
        self._sim.post_at(arrival, lambda: destination.deliver(frame))
        if verdict is not None and verdict.duplicate_delay_ns is not None:
            self._sim.post_at(
                arrival + verdict.duplicate_delay_ns,
                lambda: destination.deliver(frame),
            )

    def _fabric_delay(self, frame: Frame) -> tuple[int, Route]:
        """Store-and-forward delay over the frame's deterministic route.

        Each hop pays serialization at the link's rate (queueing behind
        frames already committed to the link's output port) plus one
        draw from the link's latency model, in route order — so the
        ``net`` stream's draw sequence is a pure function of the frame
        sequence, independent of wall effects.
        """
        pair = (frame.src_host, frame.dst_host)
        route = self._routes.get(pair)
        if route is None:
            route = self._fabric.route(frame.src_host, frame.dst_host)
            self._routes[pair] = route
        cursor = self._sim.now
        for link in route.links:
            rate = (
                link.ns_per_byte
                if link.ns_per_byte is not None
                else self.config.ns_per_byte
            )
            start = max(cursor, self._link_busy.get(link.key, 0))
            serialization = frame.size_bytes * rate
            self._link_busy[link.key] = start + serialization
            model = link.latency or self.config.latency
            cursor = start + serialization + model.sample(self._rng)
        return cursor - self._sim.now, route

    def __repr__(self) -> str:
        return (
            f"Switch(hosts={self.hosts()}, sent={self.frames_sent}, "
            f"dropped={self.frames_dropped})"
        )
