"""Edge-case tests for the SOME/IP endpoint runtime."""

import pytest

from repro.ara import Method, ServiceInterface
from repro.errors import SomeIpError
from repro.someip.serialization import INT32
from repro.someip.wire import ReturnCode
from repro.time import SEC

from tests.conftest import build_ap_world, make_process

IFACE_V1 = ServiceInterface(
    "Svc", 0x6000, major_version=1,
    methods=[Method("ping", 1, returns=[("x", INT32)])],
)
IFACE_V2 = ServiceInterface(
    "Svc", 0x6000, major_version=2,
    methods=[Method("ping", 1, returns=[("x", INT32)])],
)


class TestErrorResponses:
    def _world_with_server(self, interface=IFACE_V1):
        world = build_ap_world()
        server = make_process(world, "p1", "server")
        skeleton = server.create_skeleton(interface, 1)
        skeleton.implement("ping", lambda: 7)
        skeleton.offer()
        return world, server, skeleton

    def test_unknown_method_error(self):
        world, server, skeleton = self._world_with_server()
        client = make_process(world, "p2", "client")
        outcomes = []

        def main():
            proxy = yield from client.find_service(IFACE_V1, 1)
            # Forge a call to a method id the server does not know by
            # going through the endpoint directly.
            from repro.ara.future import Promise

            promise = Promise(client.platform)

            def completion(code, payload, tag):
                outcomes.append(code)

            client.endpoint.send_request(
                proxy.entry, 0x7777, b"", completion
            )
            yield from promise.future.wait_until(
                client.platform.local_now() + 1 * SEC
            )

        client.spawn("main", main())
        world.run_for(3 * SEC)
        assert outcomes == [ReturnCode.E_UNKNOWN_METHOD]

    def test_wrong_interface_version_rejected_at_proxy(self):
        """A v2 client cannot even build a proxy for a v1 offer."""
        from repro.errors import AraError

        world, server, skeleton = self._world_with_server(IFACE_V1)
        client = make_process(world, "p2", "client")
        outcomes = []

        def main():
            entry = yield from client.sd.find_blocking(0x6000, 1, 1 * SEC)
            from repro.ara.proxy import ServiceProxy

            try:
                ServiceProxy(client, IFACE_V2, entry)
            except AraError:
                outcomes.append("rejected")

        client.spawn("main", main())
        world.run_for(3 * SEC)
        assert outcomes == ["rejected"]

    def test_wrong_interface_version_on_wire(self):
        """A forged request with the wrong version gets the error code."""
        world, server, skeleton = self._world_with_server(IFACE_V1)
        client = make_process(world, "p2", "client")
        outcomes = []

        def main():
            entry = yield from client.sd.find_blocking(0x6000, 1, 1 * SEC)
            from repro.sim.process import Sleep
            from repro.someip.sd import ServiceEntry

            forged = ServiceEntry(
                entry.service_id, entry.instance_id, 9, entry.host, entry.port
            )

            def completion(code, payload, tag):
                outcomes.append(code)

            client.endpoint.send_request(forged, 1, b"", completion)
            yield Sleep(1 * SEC)

        client.spawn("main", main())
        world.run_for(3 * SEC)
        assert outcomes == [ReturnCode.E_WRONG_INTERFACE_VERSION]

    def test_malformed_arguments_error(self):
        world = build_ap_world()
        server = make_process(world, "p1", "server")
        iface = ServiceInterface(
            "Args", 0x6001,
            methods=[Method("set", 1, arguments=[("v", INT32)])],
        )
        skeleton = server.create_skeleton(iface, 1)
        skeleton.implement("set", lambda v: None)
        skeleton.offer()
        client = make_process(world, "p2", "client")
        outcomes = []

        def main():
            entry = yield from client.sd.find_blocking(0x6001, 1, 1 * SEC)
            from repro.sim.process import Sleep

            def completion(code, payload, tag):
                outcomes.append(code)

            # Truncated payload: not a valid int32.
            client.endpoint.send_request(entry, 1, b"\x01", completion)
            yield Sleep(1 * SEC)

        client.spawn("main", main())
        world.run_for(3 * SEC)
        assert outcomes == [ReturnCode.E_MALFORMED_MESSAGE]


class TestRequestTimeout:
    def test_answered_call_frees_its_timeout_at_once(self):
        """A response that beats the deadline takes the timeout out of
        the kernel queue and puts its handle back on the freelist."""
        world = build_ap_world()
        server = make_process(world, "p1", "server")
        skeleton = server.create_skeleton(IFACE_V1, 1)
        skeleton.implement("ping", lambda: 7)
        skeleton.offer()
        client = make_process(world, "p2", "client")
        sim = world.sim
        seen = []

        def main():
            entry = yield from client.sd.find_blocking(0x6000, 1, 1 * SEC)
            from repro.sim.process import Sleep

            def completion(code, payload, tag):
                queued = [t for bucket in sim._buckets.values() for t in bucket]
                seen.append((code, handle in queued, handle in sim._pool))

            client.endpoint.send_request(
                entry, 1, b"", completion, timeout_ns=5 * SEC
            )
            (request,) = client.endpoint._pending.values()
            handle = request.timeout_handle
            yield Sleep(1 * SEC)

        client.spawn("main", main())
        world.run_for(3 * SEC)
        assert seen == [(ReturnCode.E_OK, False, True)]


class TestServerSideGuards:
    def test_double_provide_rejected(self):
        world = build_ap_world()
        server = make_process(world, "p1", "server")
        first = server.create_skeleton(IFACE_V1, 1)
        first.implement("ping", lambda: 1)
        first.offer()
        second = server.create_skeleton(IFACE_V1, 2)
        second.implement("ping", lambda: 2)
        with pytest.raises(SomeIpError):
            second.offer()

    def test_event_id_without_flag_rejected(self):
        world = build_ap_world()
        server = make_process(world, "p1", "server")
        with pytest.raises(SomeIpError):
            server.endpoint.send_event(0x6000, 1, 0x0001, b"")

    def test_malformed_frame_counted_not_fatal(self):
        world = build_ap_world()
        server = make_process(world, "p1", "server")
        nic = world.platform("p2").attachments["nic"]
        socket = nic.bind()
        socket.send("p1", server.endpoint.port, b"garbage", 7)
        world.run_for(1 * SEC)
        assert server.endpoint.malformed_count == 1
