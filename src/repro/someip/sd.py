"""SOME/IP service discovery (SOME/IP-SD).

Implements the discovery workflow AP relies on for its *dynamic binding
of services* (the core adaptivity mechanism the paper describes in
Section II.A):

* servers **offer** service instances; offers are unicast to every host
  on the switch (standing in for the SD multicast group), repeated
  cyclically, and carry a TTL;
* clients **find** services, answered from cache or by querying peers;
* clients **subscribe** to event groups; servers ack and remember the
  subscriber's endpoint for notifications.

SD messages are genuine SOME/IP messages (service id ``0xFFFF``, method
``0x8100``) whose payload is serialized with the entry schema below.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.network.stack import NetworkInterface, Socket
from repro.network.switch import Frame
from repro.obs import context as obs_context
from repro.sim.platform import Platform
from repro.sim.process import Sleep
from repro.someip.serialization import Array, STRING, Struct, UINT8, UINT16, UINT32
from repro.someip.wire import MessageType, ReturnCode, pack, parse
from repro.time.duration import MS, SEC

#: SOME/IP-SD well-known service id and method id.
SD_SERVICE_ID = 0xFFFF
SD_METHOD_ID = 0x8100

#: SD entry types (subset).
ENTRY_FIND = 0x00
ENTRY_OFFER = 0x01
ENTRY_SUBSCRIBE = 0x06
ENTRY_SUBSCRIBE_ACK = 0x07

_ENTRY_SPEC = Struct(
    [
        ("type", UINT8),
        ("service_id", UINT16),
        ("instance_id", UINT16),
        ("major_version", UINT8),
        ("ttl_ms", UINT32),
        ("eventgroup_id", UINT16),
        ("host", STRING),
        ("port", UINT16),
    ],
    name="sd_entry",
)

_SD_PAYLOAD_SPEC = Struct([("entries", Array(_ENTRY_SPEC))], name="sd_payload")


@dataclass(frozen=True, slots=True)
class SdConfig:
    """Timing parameters of the SD daemon."""

    port: int = 30490
    cyclic_offer_period_ns: int = 1 * SEC
    ttl_ns: int = 3 * SEC
    #: Delay before the first offer burst after startup.
    initial_delay_ns: int = 10 * MS
    #: FIND retransmission under loss: first retry after this backoff...
    find_retry_backoff_ns: int = 500 * MS
    #: ...then multiplied by this factor per attempt (exponential backoff).
    find_retry_factor: int = 2
    #: Maximum FIND retransmissions within one ``find_blocking`` call.
    find_max_retries: int = 3


@dataclass(frozen=True, slots=True)
class ServiceEntry:
    """A discovered (or locally offered) service instance."""

    service_id: int
    instance_id: int
    major_version: int
    host: str
    port: int


class SdDaemon:
    """One service-discovery daemon per platform."""

    def __init__(
        self,
        platform: Platform,
        nic: NetworkInterface,
        config: SdConfig | None = None,
    ) -> None:
        self.platform = platform
        self.config = config or SdConfig()
        self._nic = nic
        self._switch = nic._switch
        self._socket: Socket = nic.bind(self.config.port)
        self._socket.on_receive = self._on_frame
        #: Locally offered instances: key -> ServiceEntry.
        self._offered: dict[tuple[int, int], ServiceEntry] = {}
        #: Remote cache: key -> (entry, expiry_global_ns).
        self._cache: dict[tuple[int, int], tuple[ServiceEntry, int]] = {}
        #: Event subscribers per (service, instance, eventgroup).
        self._subscribers: dict[tuple[int, int, int], dict[tuple[str, int], int]] = {}
        #: Subscriptions we hold as a client (for renewal).
        self._our_subscriptions: list[tuple[ServiceEntry, int, int]] = []
        #: Condvar-like wakeups for threads blocked in find_blocking.
        self._find_mutex = platform.mutex("sd.find")
        self._find_cv = platform.condvar("sd.find")
        self._session = 0
        #: FIND retransmissions sent by ``find_blocking`` (loss recovery).
        self.find_retries = 0
        platform.attachments["sd"] = self
        platform.spawn("sd.cyclic", self._cyclic_loop(), self.config.initial_delay_ns)

    # -- server side --------------------------------------------------------

    def offer(
        self, service_id: int, instance_id: int, major_version: int, rpc_port: int
    ) -> ServiceEntry:
        """Start offering a service instance reachable at *rpc_port*."""
        entry = ServiceEntry(
            service_id, instance_id, major_version, self._nic.host, rpc_port
        )
        self._offered[(service_id, instance_id)] = entry
        self._broadcast_offers([entry])
        return entry

    def stop_offer(self, service_id: int, instance_id: int) -> None:
        """Withdraw an offer (broadcast with TTL 0).

        Also forgets the instance's event subscribers: a withdrawn
        service must not keep notifying stale endpoints, and a later
        re-offer starts from a clean subscriber table.
        """
        entry = self._offered.pop((service_id, instance_id), None)
        if entry is not None:
            self._broadcast_offers([entry], ttl_ms=0)
        for key in [
            k
            for k in self._subscribers
            if k[0] == service_id and k[1] == instance_id
        ]:
            del self._subscribers[key]

    def subscribers(
        self, service_id: int, instance_id: int, eventgroup_id: int
    ) -> list[tuple[str, int]]:
        """Current live subscribers of an event group."""
        table = self._subscribers.get((service_id, instance_id, eventgroup_id))
        if not table:
            return []
        now = self.platform.sim.now
        live = []
        expired = []
        for endpoint, expiry in table.items():
            if expiry > now:
                live.append(endpoint)
            else:
                expired.append(endpoint)
        for endpoint in expired:
            del table[endpoint]
        if len(live) > 1:
            live.sort()
        return live

    # -- client side ---------------------------------------------------------

    def find(self, service_id: int, instance_id: int) -> ServiceEntry | None:
        """Non-blocking lookup: local offers first, then the remote cache."""
        local = self._offered.get((service_id, instance_id))
        if local is not None:
            return local
        cached = self._cache.get((service_id, instance_id))
        if cached is None:
            return None
        entry, expiry = cached
        if expiry <= self.platform.sim.now:
            del self._cache[(service_id, instance_id)]
            return None
        return entry

    def cached(self, service_id: int, instance_id: int) -> ServiceEntry | None:
        """Remote-cache-only lookup, ignoring this daemon's own offers.

        A standby publisher uses this to watch whether *somebody else*
        still offers the service: its own (prospective) offer must not
        mask the primary's disappearance, so :meth:`find` — which checks
        local offers first — is the wrong probe for failover logic.
        """
        cached = self._cache.get((service_id, instance_id))
        if cached is None:
            return None
        entry, expiry = cached
        if expiry <= self.platform.sim.now:
            del self._cache[(service_id, instance_id)]
            return None
        return entry

    def offering(self, service_id: int, instance_id: int) -> bool:
        """Whether this daemon currently offers the service itself."""
        return (service_id, instance_id) in self._offered

    def find_blocking(self, service_id: int, instance_id: int, timeout_ns: int):
        """Generator (thread context): resolve a service, querying peers.

        Sends FIND to all peers and blocks until an offer arrives or the
        timeout passes.  Returns the :class:`ServiceEntry` or ``None``.

        FIND messages are datagrams and can be lost; within the overall
        timeout the daemon retransmits with exponential backoff
        (``find_retry_backoff_ns`` × ``find_retry_factor`` per attempt,
        at most ``find_max_retries`` times) — the graceful-degradation
        path that keeps discovery alive under injected frame loss.  With
        the default 500 ms first backoff, a lossless discovery never
        retransmits.
        """
        from repro.sim.process import Acquire, Release, WaitUntil

        deadline = self.platform.local_now() + timeout_ns
        entry = self.find(service_id, instance_id)
        if entry is not None:
            return entry
        self._send_find(service_id, instance_id)
        backoff = self.config.find_retry_backoff_ns
        retries = 0
        next_find = self.platform.local_now() + backoff
        yield Acquire(self._find_mutex)
        while True:
            entry = self.find(service_id, instance_id)
            if entry is not None:
                yield Release(self._find_mutex)
                return entry
            now = self.platform.local_now()
            if now >= deadline:
                yield Release(self._find_mutex)
                return None
            if now >= next_find and retries < self.config.find_max_retries:
                retries += 1
                self.find_retries += 1
                backoff *= self.config.find_retry_factor
                next_find = now + backoff
                self._send_find(service_id, instance_id)
                o = obs_context.ACTIVE
                if o.enabled:
                    o.metrics.counter("sd.find_retries").inc()
            if retries >= self.config.find_max_retries:
                wait_deadline = deadline
            else:
                wait_deadline = min(deadline, next_find)
            # Loop re-checks cache and clocks whether notified or timed out.
            yield WaitUntil(self._find_cv, self._find_mutex, wait_deadline)

    def subscribe(
        self,
        entry: ServiceEntry,
        eventgroup_id: int,
        notify_port: int,
    ) -> None:
        """Subscribe *notify_port* on this host to an event group.

        Fire-and-forget (the ack updates server-side state); renewal is
        handled by the cyclic loop for as long as the process lives.
        """
        self._our_subscriptions.append((entry, eventgroup_id, notify_port))
        self._send_subscribe(entry, eventgroup_id, notify_port)

    # -- internals ---------------------------------------------------------------

    def _peers(self) -> list[str]:
        return [host for host in self._switch.hosts() if host != self._nic.host]

    def _next_session(self) -> int:
        self._session = self._session % 0xFFFF + 1
        return self._session

    def _send_entries(self, host: str, entries: list[dict]) -> None:
        payload = _SD_PAYLOAD_SPEC.to_bytes({"entries": entries})
        data = pack(
            service_id=SD_SERVICE_ID,
            method_id=SD_METHOD_ID,
            client_id=0,
            session_id=self._next_session(),
            interface_version=1,
            message_type=MessageType.NOTIFICATION,
            return_code=ReturnCode.E_OK,
            payload=payload,
        )
        self._socket.send(host, self.config.port, data, len(data))

    def _offer_dict(self, entry: ServiceEntry, ttl_ms: int) -> dict:
        return {
            "type": ENTRY_OFFER,
            "service_id": entry.service_id,
            "instance_id": entry.instance_id,
            "major_version": entry.major_version,
            "ttl_ms": ttl_ms,
            "eventgroup_id": 0,
            "host": entry.host,
            "port": entry.port,
        }

    def _broadcast_offers(self, entries: list[ServiceEntry], ttl_ms: int | None = None):
        if ttl_ms is None:
            ttl_ms = self.config.ttl_ns // MS
        dicts = [self._offer_dict(entry, ttl_ms) for entry in entries]
        if not dicts:
            return
        for host in self._peers():
            self._send_entries(host, dicts)

    def _send_find(self, service_id: int, instance_id: int) -> None:
        entry = {
            "type": ENTRY_FIND,
            "service_id": service_id,
            "instance_id": instance_id,
            "major_version": 0,
            "ttl_ms": 0,
            "eventgroup_id": 0,
            "host": self._nic.host,
            "port": self.config.port,
        }
        for host in self._peers():
            self._send_entries(host, [entry])

    def _send_subscribe(
        self, entry: ServiceEntry, eventgroup_id: int, notify_port: int
    ) -> None:
        subscribe = {
            "type": ENTRY_SUBSCRIBE,
            "service_id": entry.service_id,
            "instance_id": entry.instance_id,
            "major_version": entry.major_version,
            "ttl_ms": self.config.ttl_ns // MS,
            "eventgroup_id": eventgroup_id,
            "host": self._nic.host,
            "port": notify_port,
        }
        self._send_entries(entry.host, [subscribe])

    def _cyclic_loop(self):
        while True:
            self._broadcast_offers(list(self._offered.values()))
            for entry, eventgroup_id, notify_port in self._our_subscriptions:
                self._send_subscribe(entry, eventgroup_id, notify_port)
            self._purge_expired()
            yield Sleep(self.config.cyclic_offer_period_ns)

    def _purge_expired(self) -> None:
        now = self.platform.sim.now
        expired = [key for key, (_e, expiry) in self._cache.items() if expiry <= now]
        for key in expired:
            del self._cache[key]

    # -- receive path (kernel context) ----------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        service_id, _, _, _, _, _, _, _, payload, _ = parse(frame.payload)
        if service_id != SD_SERVICE_ID:
            return
        payload = _SD_PAYLOAD_SPEC.from_bytes(payload)
        for entry in payload["entries"]:
            self._handle_entry(entry)

    def _handle_entry(self, entry: dict) -> None:
        entry_type = entry["type"]
        if entry_type == ENTRY_OFFER:
            self._handle_offer(entry)
        elif entry_type == ENTRY_FIND:
            self._handle_find(entry)
        elif entry_type == ENTRY_SUBSCRIBE:
            self._handle_subscribe(entry)
        elif entry_type == ENTRY_SUBSCRIBE_ACK:
            pass  # client-side state is kept optimistically
        # Unknown entry types are ignored, as the spec requires.

    def _handle_offer(self, entry: dict) -> None:
        key = (entry["service_id"], entry["instance_id"])
        if entry["ttl_ms"] == 0:
            self._cache.pop(key, None)
            return
        service = ServiceEntry(
            entry["service_id"],
            entry["instance_id"],
            entry["major_version"],
            entry["host"],
            entry["port"],
        )
        expiry = self.platform.sim.now + entry["ttl_ms"] * MS
        self._cache[key] = (service, expiry)
        self.platform.scheduler.external_notify_all(self._find_cv)

    def _handle_find(self, entry: dict) -> None:
        key = (entry["service_id"], entry["instance_id"])
        offered = self._offered.get(key)
        if offered is not None:
            ttl_ms = self.config.ttl_ns // MS
            self._send_entries(entry["host"], [self._offer_dict(offered, ttl_ms)])

    def _handle_subscribe(self, entry: dict) -> None:
        key = (entry["service_id"], entry["instance_id"], entry["eventgroup_id"])
        if (entry["service_id"], entry["instance_id"]) not in self._offered:
            return
        table = self._subscribers.setdefault(key, {})
        expiry = self.platform.sim.now + entry["ttl_ms"] * MS
        table[(entry["host"], entry["port"])] = expiry
        ack = dict(entry, type=ENTRY_SUBSCRIBE_ACK)
        self._send_entries(entry["host"], [ack])

    def __repr__(self) -> str:
        return (
            f"SdDaemon({self._nic.host!r}, offered={len(self._offered)}, "
            f"cached={len(self._cache)})"
        )
