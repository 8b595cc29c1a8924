"""The per-process SOME/IP endpoint.

Each AP software component (SWC) is a process with its own SOME/IP
endpoint: one datagram socket, a client id, a session counter, pending
request/response matching, and dispatch of incoming requests and event
notifications to registered handlers.

Handlers run in **kernel context** (the receive path of the simulated
stack); the ARA layer on top decides whether to process synchronously or
hand off to a worker-thread pool — which is exactly where the paper's
second source of nondeterminism (undefined processing order of incoming
messages) enters.

Tag awareness (the paper's modified binding) is per endpoint: a
tag-aware endpoint collects tags from its TX :class:`TimestampBypass`
when serializing and deposits extracted tags into its RX bypass before
invoking handlers — the sequence shown in the paper's Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import SomeIpError
from repro.network.stack import NetworkInterface, Socket
from repro.obs import context as obs_context
from repro.obs.bus import TRACK_NETWORK
from repro.obs.flows import CAUSE_MALFORMED, LAYER_SOMEIP, attribute_drop
from repro.network.switch import Frame
from repro.sim.platform import Platform
from repro.someip.sd import SdDaemon, ServiceEntry
from repro.someip.tagging import TimestampBypass, attach_tag, extract_tag
from repro.someip.wire import MessageType, ReturnCode, SomeIpHeader, pack, parse
from repro.time.tag import Tag

#: Event/notification method ids have the most significant bit set.
EVENT_ID_FLAG = 0x8000

#: Members the per-message paths compare and pack, bound once.
_NOTIFICATION = MessageType.NOTIFICATION
_RESPONSE = MessageType.RESPONSE
_ERROR = MessageType.ERROR
_E_OK = ReturnCode.E_OK


@dataclass(slots=True)
class IncomingRequest:
    """A method invocation received by a server endpoint."""

    endpoint: "SomeIpEndpoint"
    header: SomeIpHeader
    payload: bytes
    tag: Tag | None
    src_host: str
    src_port: int
    replied: bool = False

    @property
    def fire_and_forget(self) -> bool:
        """Whether the client expects no response."""
        return self.header.message_type is MessageType.REQUEST_NO_RETURN

    def reply(self, payload: bytes, tag: Tag | None = None) -> None:
        """Send the RESPONSE message back to the caller."""
        if self.fire_and_forget:
            return
        if self.replied:
            raise SomeIpError("request already replied to")
        self.replied = True
        self._send_back(MessageType.RESPONSE, ReturnCode.E_OK, payload, tag)

    def reply_error(self, return_code: ReturnCode) -> None:
        """Send an ERROR message back to the caller."""
        if self.fire_and_forget or self.replied:
            return
        self.replied = True
        self._send_back(MessageType.ERROR, return_code, b"", None)

    def _send_back(
        self,
        message_type: MessageType,
        return_code: ReturnCode,
        payload: bytes,
        tag: Tag | None,
    ) -> None:
        header = self.header
        self.endpoint._transmit(
            self.src_host,
            self.src_port,
            header.service_id,
            header.method_id,
            header.client_id,
            header.session_id,
            header.interface_version,
            message_type,
            return_code,
            payload,
            tag,
        )


@dataclass(slots=True)
class _PendingRequest:
    completion: Callable[[ReturnCode, bytes, Tag | None], None]
    timeout_handle: Any = None


@dataclass(slots=True)
class _ServiceRegistration:
    instance_id: int
    major_version: int
    handler: Callable[[IncomingRequest], None]


class SomeIpEndpoint:
    """One process's SOME/IP binding."""

    _next_client_id = 1

    def __init__(
        self,
        platform: Platform,
        sd: SdDaemon,
        name: str,
        tag_aware: bool = False,
        tag_transport: str = "trailer",
    ) -> None:
        if tag_transport not in ("trailer", "native"):
            raise SomeIpError(f"unknown tag transport {tag_transport!r}")
        nic: NetworkInterface = platform.attachments["nic"]
        self.platform = platform
        self.sd = sd
        self.name = name
        self.tag_aware = tag_aware
        #: "trailer": the paper's workaround (tag appended behind the
        #: payload); "native": the advocated standard extension (tag as a
        #: first-class protocol-v2 field).  Receivers accept both.
        self.tag_transport = tag_transport
        self.socket: Socket = nic.bind()
        self.socket.on_receive = self._on_frame
        self.client_id = SomeIpEndpoint._next_client_id
        SomeIpEndpoint._next_client_id += 1
        self._session = 0
        self._pending: dict[int, _PendingRequest] = {}
        self._services: dict[int, _ServiceRegistration] = {}
        self._event_handlers: dict[
            tuple[int, int], Callable[[bytes, Tag | None], None]
        ] = {}
        #: Figure 3's side channels between transactors and this binding.
        self.tx_bypass = TimestampBypass(f"{name}.tx")
        self.rx_bypass = TimestampBypass(f"{name}.rx")
        self.malformed_count = 0

    # -- addressing -----------------------------------------------------------

    @property
    def host(self) -> str:
        """The host this endpoint lives on."""
        return self.socket.host

    @property
    def port(self) -> int:
        """The endpoint's RPC port."""
        return self.socket.port

    # -- server API -------------------------------------------------------------

    def provide_service(
        self,
        service_id: int,
        instance_id: int,
        major_version: int,
        handler: Callable[[IncomingRequest], None],
    ) -> None:
        """Register a request handler and offer the service via SD."""
        if service_id in self._services:
            raise SomeIpError(
                f"endpoint {self.name!r} already provides service 0x{service_id:04x}"
            )
        self._services[service_id] = _ServiceRegistration(
            instance_id, major_version, handler
        )
        self.sd.offer(service_id, instance_id, major_version, self.port)

    def withdraw_service(self, service_id: int) -> None:
        """Stop offering a service."""
        registration = self._services.pop(service_id, None)
        if registration is not None:
            self.sd.stop_offer(service_id, registration.instance_id)

    def send_event(
        self,
        service_id: int,
        instance_id: int,
        event_id: int,
        payload: bytes,
        tag: Tag | None = None,
    ) -> int:
        """Send a NOTIFICATION to all live subscribers; returns the count."""
        if not event_id & EVENT_ID_FLAG:
            raise SomeIpError(f"event id 0x{event_id:04x} must have the MSB set")
        registration = self._services.get(service_id)
        major = registration.major_version if registration else 1
        subscribers = self.sd.subscribers(service_id, instance_id, event_id)
        session = self._next_session()
        for host, port in subscribers:
            self._transmit(
                host,
                port,
                service_id,
                event_id,
                0,
                session,
                major,
                _NOTIFICATION,
                _E_OK,
                payload,
                tag,
            )
        return len(subscribers)

    # -- client API ---------------------------------------------------------------

    def send_request(
        self,
        entry: ServiceEntry,
        method_id: int,
        payload: bytes,
        completion: Callable[[ReturnCode, bytes, Tag | None], None],
        tag: Tag | None = None,
        fire_and_forget: bool = False,
        timeout_ns: int | None = None,
    ) -> None:
        """Invoke a method on a remote service instance.

        *completion* is called in kernel context with the return code,
        response payload and tag (if any).  For fire-and-forget methods
        the completion is invoked immediately with an empty payload.
        """
        session = self._next_session()
        message_type = (
            MessageType.REQUEST_NO_RETURN if fire_and_forget else MessageType.REQUEST
        )
        if not fire_and_forget:
            pending = _PendingRequest(completion)
            if timeout_ns is not None:
                sim = self.platform.sim
                pending.timeout_handle = sim.timer_at(
                    sim.now + timeout_ns, lambda: self._on_timeout(session)
                )
            self._pending[session] = pending
        self._transmit(
            entry.host,
            entry.port,
            entry.service_id,
            method_id,
            self.client_id,
            session,
            entry.major_version,
            message_type,
            ReturnCode.E_OK,
            payload,
            tag,
        )
        if fire_and_forget:
            completion(ReturnCode.E_OK, b"", None)

    def subscribe_event(
        self,
        entry: ServiceEntry,
        event_id: int,
        handler: Callable[[bytes, Tag | None], None],
    ) -> None:
        """Subscribe to an event; *handler* runs in kernel context."""
        if not event_id & EVENT_ID_FLAG:
            raise SomeIpError(f"event id 0x{event_id:04x} must have the MSB set")
        self._event_handlers[(entry.service_id, event_id)] = handler
        self.sd.subscribe(entry, event_id, self.socket.port)

    # -- transmit / receive ------------------------------------------------------------

    def _next_session(self) -> int:
        self._session = self._session % 0xFFFF + 1
        return self._session

    def _transmit(
        self,
        host: str,
        port: int,
        service_id: int,
        method_id: int,
        client_id: int,
        session_id: int,
        interface_version: int,
        message_type: MessageType,
        return_code: ReturnCode,
        payload: bytes,
        tag: Tag | None,
    ) -> None:
        """Serialize and send; the paper's modified binding lives here.

        A tag-aware endpoint first consults the explicit *tag* argument
        (used by internal replies) and otherwise collects from the TX
        bypass, then appends the tag trailer to the payload (or, with
        the native transport, sends it as the version-2 tag field).
        """
        if self.tag_aware and tag is None:
            tag = self.tx_bypass.collect()
        if tag is not None and self.tag_transport == "native":
            native_tag = tag
        else:
            native_tag = None
            if tag is not None:
                payload = attach_tag(payload, tag)
        data = pack(
            service_id,
            method_id,
            client_id,
            session_id,
            interface_version,
            message_type,
            return_code,
            payload,
            native_tag,
        )
        o = obs_context.ACTIVE
        if o is not None:
            o.metrics.counter("someip.tx_messages").inc()
            if tag is not None:
                o.metrics.counter("someip.tx_tagged").inc()
        self.socket.send(host, port, data, len(data))

    def _on_frame(self, frame: Frame) -> None:
        o = obs_context.ACTIVE
        try:
            (
                service_id,
                method_id,
                client_id,
                session_id,
                interface_version,
                message_type,
                return_code,
                protocol_version,
                payload,
                native_tag,
            ) = parse(frame.payload)
        except Exception:
            self.malformed_count += 1
            if o is not None:
                o.metrics.counter("someip.malformed").inc()
                o.bus.instant(
                    TRACK_NETWORK,
                    f"malformed {self.name}",
                    self.platform.sim.now,
                    o.wall_ns(),
                )
                attribute_drop(
                    o, LAYER_SOMEIP, CAUSE_MALFORMED, self.platform.sim.now
                )
            return
        if o is not None:
            o.metrics.counter("someip.rx_messages").inc()
            flows = o.flows
            if flows is not None and flows.current is not None:
                flows.hop(
                    flows.current,
                    LAYER_SOMEIP,
                    f"rx {self.name}",
                    self.platform.sim.now,
                )
        payload, tag = extract_tag(payload)
        if native_tag is not None:
            tag = native_tag
        if self.tag_aware and tag is not None:
            # Figure 3 steps (7)/(18): the binding deposits the received
            # tag into the bypass before invoking the upper layer, which
            # collects it synchronously.
            self.rx_bypass.deposit(tag)
        if message_type is _NOTIFICATION:
            handler = self._event_handlers.get((service_id, method_id))
            if handler is not None:
                handler(payload, tag)
        elif message_type is _RESPONSE or message_type is _ERROR:
            if client_id != self.client_id:
                return
            pending = self._pending.pop(session_id, None)
            if pending is None:
                return
            if pending.timeout_handle is not None:
                self.platform.sim.cancel_timer(pending.timeout_handle)
            pending.completion(return_code, payload, tag)
        else:  # REQUEST or REQUEST_NO_RETURN: parse admits no other type
            header = SomeIpHeader(
                service_id,
                method_id,
                client_id,
                session_id,
                interface_version,
                message_type,
                return_code,
                protocol_version,
            )
            self._dispatch_request(header, payload, tag, frame)

    def _dispatch_request(
        self, header: SomeIpHeader, payload: bytes, tag: Tag | None, frame: Frame
    ) -> None:
        request = IncomingRequest(
            endpoint=self,
            header=header,
            payload=payload,
            tag=tag,
            src_host=frame.src_host,
            src_port=frame.src_port,
        )
        registration = self._services.get(header.service_id)
        if registration is None:
            request.reply_error(ReturnCode.E_UNKNOWN_SERVICE)
            return
        if header.interface_version != registration.major_version:
            request.reply_error(ReturnCode.E_WRONG_INTERFACE_VERSION)
            return
        registration.handler(request)

    def _on_timeout(self, session: int) -> None:
        pending = self._pending.pop(session, None)
        if pending is not None:
            pending.completion(ReturnCode.E_TIMEOUT, b"", None)

    def __repr__(self) -> str:
        return f"SomeIpEndpoint({self.name!r} @ {self.host}:{self.port})"
