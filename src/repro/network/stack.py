"""Per-platform network interfaces and sockets.

A :class:`NetworkInterface` is a platform's NIC: it owns the port
namespace and hands received frames to bound :class:`Socket` objects.
Delivery happens in kernel-event context (a "NIC interrupt"); the socket
posts the payload into a simulated-thread message queue, from which
middleware threads read — the same structure as a real UDP stack under a
SOME/IP daemon.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import NetworkError
from repro.network.switch import CorruptedPayload, Frame, Switch
from repro.obs import context as obs_context
from repro.obs.bus import TRACK_NETWORK
from repro.obs.flows import (
    CAUSE_FCS,
    CAUSE_QUEUE_OVERFLOW,
    CAUSE_UNBOUND_PORT,
    LAYER_NIC,
    LAYER_SOCKET,
    attribute_drop,
)
from repro.sim.platform import Platform
from repro.sim.sync import MessageQueue


class Socket:
    """A datagram socket bound to ``(host, port)``.

    Received payloads land in :attr:`rx`, a message queue readable from
    simulated threads with ``yield from socket.rx.get()``.  Alternatively
    an ``on_receive`` callback (kernel context — must not block) can be
    installed; it is invoked *instead of* queueing.
    """

    def __init__(
        self,
        interface: "NetworkInterface",
        port: int,
        rx_capacity: int | None = None,
    ) -> None:
        self._interface = interface
        self.port = port
        self.rx: MessageQueue = interface.platform.queue(
            name=f"sock{port}.rx", capacity=rx_capacity, overflow="drop-new"
        )
        self.on_receive: Callable[[Frame], None] | None = None
        self.received = 0
        self.sent = 0
        #: Frames the rx queue's drop-new overflow policy discarded.
        self.rx_dropped = 0

    @property
    def host(self) -> str:
        """The host this socket lives on."""
        return self._interface.host

    def send(
        self, dst_host: str, dst_port: int, payload: Any, size_bytes: int
    ) -> None:
        """Send *payload* to ``(dst_host, dst_port)``.

        Callable from both thread context and kernel context; transmission
        is asynchronous (fire-and-forget), like ``sendto`` on a datagram
        socket that never blocks.
        """
        self.sent += 1
        interface = self._interface
        interface.transmit(
            Frame(interface.host, self.port, dst_host, dst_port, payload, size_bytes)
        )

    def _deliver(self, frame: Frame) -> None:
        self.received += 1
        if self.on_receive is not None:
            self.on_receive(frame)
        elif not self.rx.post(frame):
            self.rx_dropped += 1
            o = obs_context.ACTIVE
            if o.enabled:
                o.metrics.counter("net.socket_rx_dropped").inc()
                o.bus.instant(
                    TRACK_NETWORK,
                    f"rx-overflow {self.host}:{self.port}",
                    self._interface.platform.sim.now,
                    o.wall_ns(),
                )
                attribute_drop(
                    o,
                    LAYER_SOCKET,
                    CAUSE_QUEUE_OVERFLOW,
                    self._interface.platform.sim.now,
                )

    def close(self) -> None:
        """Unbind the socket from its interface."""
        self._interface._unbind(self.port)


class NetworkInterface:
    """A platform's NIC, registered with the switch."""

    def __init__(self, platform: Platform, switch: Switch) -> None:
        self.platform = platform
        self._switch = switch
        self._sockets: dict[int, Socket] = {}
        self._next_ephemeral = 49152
        #: Frames discarded on arrival because their payload was
        #: corrupted in flight (an FCS/checksum failure).
        self.fcs_dropped = 0
        switch.register(self)
        platform.attachments["nic"] = self

    @property
    def host(self) -> str:
        """The host name (the platform name)."""
        return self.platform.name

    def bind(self, port: int | None = None, rx_capacity: int | None = None) -> Socket:
        """Create a socket on *port* (or an ephemeral port if ``None``)."""
        if port is None:
            port = self._next_ephemeral
            while port in self._sockets:
                port += 1
            self._next_ephemeral = port + 1
        if port in self._sockets:
            raise NetworkError(f"port {port} already bound on {self.host!r}")
        socket = Socket(self, port, rx_capacity)
        self._sockets[port] = socket
        return socket

    def transmit(self, frame: Frame) -> None:
        """Hand a frame to the switch."""
        self._switch.send(frame)

    def deliver(self, frame: Frame) -> None:
        """Called by the switch when a frame arrives for this host."""
        o = obs_context.ACTIVE
        flows = o.flows if o.enabled else None
        swapped = False
        previous = None
        if flows is not None:
            # Re-establish the frame's flow as the current kernel-chain
            # flow for the synchronous delivery path below (socket ->
            # SOME/IP dispatch -> DEAR transactor ingress).
            flow = flows.frame_arrived(frame)
            if flow is not None:
                previous = flows.swap_current(flow)
                swapped = True
                flows.hop(
                    flow,
                    LAYER_NIC,
                    f"rx {self.host}:{frame.dst_port}",
                    self.platform.sim.now,
                )
        try:
            if isinstance(frame.payload, CorruptedPayload):
                # A corrupted frame fails the FCS check and never reaches
                # a socket — corruption manifests as (counted) loss.
                self.fcs_dropped += 1
                if o.enabled:
                    o.metrics.counter("net.fcs_dropped").inc()
                    o.bus.instant(
                        TRACK_NETWORK,
                        f"fcs-drop {self.host}:{frame.dst_port}",
                        self.platform.sim.now,
                        o.wall_ns(),
                    )
                    attribute_drop(o, LAYER_NIC, CAUSE_FCS, self.platform.sim.now)
                return
            socket = self._sockets.get(frame.dst_port)
            if socket is None:
                # Real stacks drop datagrams for unbound ports.
                if o.enabled:
                    attribute_drop(
                        o, LAYER_NIC, CAUSE_UNBOUND_PORT, self.platform.sim.now
                    )
                return
            socket._deliver(frame)
        finally:
            if swapped:
                flows.restore_current(previous)

    def _unbind(self, port: int) -> None:
        self._sockets.pop(port, None)

    def __repr__(self) -> str:
        return f"NetworkInterface({self.host!r}, ports={sorted(self._sockets)})"
