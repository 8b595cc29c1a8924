"""Integration tests for the DEAR framework (transactors + STP)."""

import pytest

from repro.ara import Event, Field, Method, ServiceInterface
from repro.dear import (
    ClientEventTransactor,
    ClientMethodTransactor,
    MethodCall,
    MethodReturn,
    ServerEventTransactor,
    ServerMethodTransactor,
    StpConfig,
    TransactorConfig,
    UntaggedPolicy,
    generate_client_transactors,
    generate_server_transactors,
)
from repro.errors import DearError
from repro.reactors import Environment, Reactor
from repro.sim.platform import MINNOWBOARD
from repro.someip.serialization import INT32
from repro.time import MS, SEC

from tests.conftest import build_ap_world, make_process

ECHO = ServiceInterface(
    name="Echo",
    service_id=0x2000,
    methods=[Method("echo", 0x0001, arguments=[("x", INT32)], returns=[("x", INT32)])],
    events=[Event("pulse", 0x8001, data=[("n", INT32)])],
    fields=[Field("gain", INT32)],
)

CONFIG = TransactorConfig(
    deadline_ns=5 * MS,
    stp=StpConfig(latency_bound_ns=10 * MS, clock_error_ns=0),
)


class EchoServerLogic(Reactor):
    """Server logic: replies x+1 to echo calls."""

    def __init__(self, name, owner):
        super().__init__(name, owner)
        self.calls_in = self.input("calls_in")
        self.replies_out = self.output("replies_out")
        self.seen = []
        self.reaction(
            "serve",
            triggers=[self.calls_in],
            effects=[self.replies_out],
            body=self._serve,
        )

    def _serve(self, ctx):
        call: MethodCall = ctx.get(self.calls_in)
        self.seen.append((ctx.tag, call.arguments))
        ctx.set(self.replies_out, MethodReturn(call.call_id, call.arguments + 1))


class EchoClientLogic(Reactor):
    """Client logic: issues calls on a timer, collects replies."""

    def __init__(self, name, owner, count=3, period=50 * MS):
        super().__init__(name, owner)
        self.call_out = self.output("call_out")
        self.reply_in = self.input("reply_in")
        self.tick = self.timer("tick", offset=10 * MS, period=period)
        self.count = count
        self.sent = 0
        self.replies = []
        self.reaction("send", triggers=[self.tick], effects=[self.call_out],
                      body=self._send)
        self.reaction("recv", triggers=[self.reply_in], body=self._recv)

    def _send(self, ctx):
        if self.sent < self.count:
            self.sent += 1
            ctx.set(self.call_out, self.sent * 10)

    def _recv(self, ctx):
        reply = ctx.get(self.reply_in)
        self.replies.append((ctx.tag, reply))
        if len(self.replies) >= self.count:
            ctx.request_stop()


def run_echo_world(seed=0):
    """Distributed DEAR method calls: client on p2, server on p1."""
    world = build_ap_world(seed, platform_config=MINNOWBOARD)
    server_process = make_process(world, "p1", "server", tag_aware=True)
    client_process = make_process(world, "p2", "client", tag_aware=True)

    server_env = Environment(name="server", timeout=2 * SEC)
    skeleton = server_process.create_skeleton(ECHO, 1)
    smt = ServerMethodTransactor(
        "echo_smt", server_env, server_process, skeleton, "echo", CONFIG
    )
    logic = EchoServerLogic("logic", server_env)
    server_env.connect(smt.request_out, logic.calls_in)
    server_env.connect(logic.replies_out, smt.response_in)
    skeleton.offer()
    server_env.start(world.platform("p1"))

    client_env = Environment(name="client", timeout=2 * SEC)
    client_logic = EchoClientLogic("logic", client_env)
    state = {}

    def client_setup():
        proxy = yield from client_process.find_service(ECHO, 1)
        cmt = ClientMethodTransactor(
            "echo_cmt", client_env, client_process, proxy, "echo", CONFIG
        )
        client_env.connect(client_logic.call_out, cmt.request)
        client_env.connect(cmt.response, client_logic.reply_in)
        client_env.start(world.platform("p2"))
        state["cmt"] = cmt

    client_process.spawn("setup", client_setup())
    world.run_for(5 * SEC)
    return world, client_logic, logic, state


class TestMethodTransactors:
    def test_round_trip_values(self):
        world, client_logic, server_logic, _ = run_echo_world()
        values = [reply.value for _, reply in client_logic.replies]
        assert values == [11, 21, 31]
        assert all(reply.ok for _, reply in client_logic.replies)

    def test_server_sees_tag_order(self):
        world, client_logic, server_logic, _ = run_echo_world()
        tags = [tag for tag, _ in server_logic.seen]
        assert tags == sorted(tags)
        assert [args for _, args in server_logic.seen] == [10, 20, 30]

    def test_reply_tag_respects_stp_chain(self):
        """Client-side reply tag must be >= tc + Dc + L + E + Ds + L + E."""
        world, client_logic, server_logic, _ = run_echo_world()
        # First call: tc = start + 10ms (client logic timer offset).
        reply_tag, _reply = client_logic.replies[0]
        minimum = 10 * MS + 2 * (CONFIG.deadline_ns + CONFIG.stp.release_delay_ns)
        assert reply_tag.time >= minimum

    def test_logical_trace_identical_across_seeds(self):
        def fingerprint(seed):
            world, client_logic, _logic, state = run_echo_world(seed)
            env = client_logic.environment
            return env.trace.fingerprint()

        assert len({fingerprint(seed) for seed in range(3)}) == 1

    def test_no_stp_violations_with_sound_bounds(self):
        world, client_logic, server_logic, state = run_echo_world()
        assert state["cmt"].stp_violations == 0
        assert state["cmt"].deadline_misses == 0


class TestEventTransactors:
    def _run(self, seed=0, publisher_period=50 * MS, count=4):
        world = build_ap_world(seed, platform_config=MINNOWBOARD)
        server_process = make_process(world, "p1", "pub", tag_aware=True)
        client_process = make_process(world, "p2", "sub", tag_aware=True)

        server_env = Environment(name="pub", timeout=1 * SEC)
        skeleton = server_process.create_skeleton(ECHO, 1)

        class Publisher(Reactor):
            def __init__(self, name, owner):
                super().__init__(name, owner)
                self.out = self.output("out")
                tick = self.timer("tick", offset=10 * MS, period=publisher_period)
                self.n = 0

                def fire(ctx):
                    if self.n < count:
                        self.n += 1
                        ctx.set(self.out, self.n)

                self.reaction("fire", triggers=[tick], effects=[self.out], body=fire)

        publisher = Publisher("publisher", server_env)
        set_tx = ServerEventTransactor(
            "pulse_set", server_env, server_process, skeleton, "pulse", CONFIG
        )
        server_env.connect(publisher.out, set_tx.inp)
        skeleton.implement("echo", lambda x: x)
        skeleton.offer()

        client_env = Environment(name="sub", timeout=2 * SEC)

        class Subscriber(Reactor):
            def __init__(self, name, owner):
                super().__init__(name, owner)
                self.inp = self.input("inp")
                self.received = []
                self.reaction(
                    "recv",
                    triggers=[self.inp],
                    body=lambda ctx: self.received.append(
                        (ctx.tag, ctx.get(self.inp))
                    ),
                )

        subscriber = Subscriber("subscriber", client_env)
        state = {}

        def setup():
            proxy = yield from client_process.find_service(ECHO, 1)
            cet = ClientEventTransactor(
                "pulse_cet", client_env, client_process, proxy, "pulse", CONFIG
            )
            client_env.connect(cet.out, subscriber.inp)
            client_env.start(world.platform("p2"))
            state["cet"] = cet
            # Give the subscription time to reach the publisher before
            # it starts emitting.
            server_env.start(world.platform("p1"))

        client_process.spawn("setup", setup())
        world.run_for(4 * SEC)
        return world, subscriber, state

    def test_events_arrive_in_tag_order_with_values(self):
        world, subscriber, state = self._run()
        values = [value for _, value in subscriber.received]
        assert values == [1, 2, 3, 4]
        tags = [tag for tag, _ in subscriber.received]
        assert tags == sorted(tags)

    def test_event_tags_carry_sender_deadline_and_stp(self):
        world, subscriber, state = self._run()
        deltas = [
            (b[0].time - a[0].time)
            for a, b in zip(subscriber.received, subscriber.received[1:])
        ]
        # Publisher period is preserved exactly in logical time.
        assert all(delta == 50 * MS for delta in deltas)

    def test_received_counter(self):
        world, subscriber, state = self._run()
        assert state["cet"].received == 4


class TestUntaggedPolicy:
    def test_untagged_fail_policy_raises(self):
        """A non-DEAR (stock) publisher sends untagged events to a DEAR
        subscriber with the default FAIL policy."""
        world = build_ap_world(0)
        server_process = make_process(world, "p1", "pub", tag_aware=False)
        client_process = make_process(world, "p2", "sub", tag_aware=True)
        skeleton = server_process.create_skeleton(ECHO, 1)
        skeleton.implement("echo", lambda x: x)
        skeleton.offer()
        client_env = Environment(name="sub", timeout=3 * SEC)
        sink = Reactor("sink", client_env)
        inp = sink.input("inp")
        sink.reaction("recv", triggers=[inp], body=lambda ctx: None)

        def setup():
            proxy = yield from client_process.find_service(ECHO, 1)
            cet = ClientEventTransactor(
                "pulse_cet", client_env, client_process, proxy, "pulse", CONFIG
            )
            client_env.connect(cet.out, inp)
            client_env.start(world.platform("p2"))

        client_process.spawn("setup", setup())
        world.run_for(1 * SEC)
        with pytest.raises(DearError):
            skeleton.send_event("pulse", 1)
            world.run_for(1 * SEC)

    def test_untagged_physical_time_fallback(self):
        """With PHYSICAL_TIME policy the stock publisher interoperates:
        the paper's backward-compatibility mode."""
        config = TransactorConfig(
            deadline_ns=5 * MS,
            stp=StpConfig(latency_bound_ns=10 * MS),
            untagged=UntaggedPolicy.PHYSICAL_TIME,
        )
        world = build_ap_world(0)
        server_process = make_process(world, "p1", "pub", tag_aware=False)
        client_process = make_process(world, "p2", "sub", tag_aware=True)
        skeleton = server_process.create_skeleton(ECHO, 1)
        skeleton.implement("echo", lambda x: x)
        skeleton.offer()
        client_env = Environment(name="sub", timeout=3 * SEC)
        received = []
        sink = Reactor("sink", client_env)
        inp = sink.input("inp")
        sink.reaction(
            "recv", triggers=[inp],
            body=lambda ctx: received.append((ctx.tag, ctx.get(inp))),
        )

        def setup():
            proxy = yield from client_process.find_service(ECHO, 1)
            cet = ClientEventTransactor(
                "pulse_cet", client_env, client_process, proxy, "pulse", config
            )
            client_env.connect(cet.out, inp)
            client_env.start(world.platform("p2"))

        client_process.spawn("setup", setup())
        world.run_for(1 * SEC)
        world.sim.post_after(0, lambda: skeleton.send_event("pulse", 99))
        world.run_for(1 * SEC)
        assert [value for _, value in received] == [99]


class TestCodegen:
    def test_generated_bindings_cover_interface(self):
        world = build_ap_world(0)
        server_process = make_process(world, "p1", "srv", tag_aware=True)
        client_process = make_process(world, "p2", "cli", tag_aware=True)
        server_env = Environment(name="srv")
        skeleton = server_process.create_skeleton(ECHO, 1)
        server_binding = generate_server_transactors(
            server_env, server_process, skeleton, CONFIG,
            field_initials={"gain": 7},
        )
        assert set(server_binding.methods) == {"echo"}
        assert set(server_binding.events) == {"pulse"}
        assert set(server_binding.fields) == {"gain"}
        assert server_binding.fields["gain"].value == 7
        skeleton.offer()

        collected = {}

        def setup():
            proxy = yield from client_process.find_service(ECHO, 1)
            client_env = Environment(name="cli")
            client_binding = generate_client_transactors(
                client_env, client_process, proxy, CONFIG
            )
            collected["binding"] = client_binding

        client_process.spawn("setup", setup())
        world.run_for(1 * SEC)
        client_binding = collected["binding"]
        assert set(client_binding.methods) == {"echo"}
        assert set(client_binding.events) == {"pulse"}
        assert set(client_binding.fields) == {"gain"}
        assert client_binding.fields["gain"].get is not None
        assert client_binding.fields["gain"].set is not None
        assert client_binding.fields["gain"].changed is not None

    def test_field_round_trip_through_transactors(self):
        """get/set a field end-to-end through DEAR field transactors."""
        world = build_ap_world(0, platform_config=MINNOWBOARD)
        server_process = make_process(world, "p1", "srv", tag_aware=True)
        client_process = make_process(world, "p2", "cli", tag_aware=True)
        server_env = Environment(name="srv", timeout=3 * SEC)
        skeleton = server_process.create_skeleton(ECHO, 1)
        server_binding = generate_server_transactors(
            server_env, server_process, skeleton, CONFIG,
            field_initials={"gain": 1},
        )
        skeleton.offer()
        server_env.start(world.platform("p1"))

        client_env = Environment(name="cli", timeout=3 * SEC)

        class FieldUser(Reactor):
            def __init__(self, name, owner):
                super().__init__(name, owner)
                self.set_req = self.output("set_req")
                self.set_res = self.input("set_res")
                self.changed = self.input("changed")
                self.log = []
                kick = self.timer("kick", offset=10 * MS)
                self.reaction("do_set", triggers=[kick], effects=[self.set_req],
                              body=lambda ctx: ctx.set(self.set_req, 42))
                self.reaction("on_set", triggers=[self.set_res],
                              body=lambda ctx: self.log.append(
                                  ("set", ctx.get(self.set_res).value)))
                self.reaction("on_changed", triggers=[self.changed],
                              body=lambda ctx: self.log.append(
                                  ("changed", ctx.get(self.changed))))

        user = FieldUser("user", client_env)

        def setup():
            proxy = yield from client_process.find_service(ECHO, 1)
            binding = generate_client_transactors(
                client_env, client_process, proxy, CONFIG
            )
            gain = binding.fields["gain"]
            client_env.connect(user.set_req, gain.set.request)
            client_env.connect(gain.set.response, user.set_res)
            client_env.connect(gain.changed.out, user.changed)
            client_env.start(world.platform("p2"))

        client_process.spawn("setup", setup())
        world.run_for(8 * SEC)
        assert ("set", 42) in user.log
        assert ("changed", 42) in user.log
        assert server_binding.fields["gain"].value == 42
