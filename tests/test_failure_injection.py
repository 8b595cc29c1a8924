"""Failure injection: violated assumptions must be *observable*.

The paper argues that DEAR "translates any violation of one of the
assumptions directly into observable errors".  These tests violate each
assumption on purpose — network latency above the assumed ``L``, clock
skew above the assumed ``E``, deadlines below WCET — and check the
violation is counted, never silent.
"""

from repro import ara
from repro.ara import AraProcess, Event, Method, ServiceInterface
from repro.dear import (
    ClientEventTransactor,
    ServerEventTransactor,
    StpConfig,
    TransactorConfig,
)
from repro.network import ConstantLatency, SpikyLatency, SwitchConfig
from repro.reactors import Environment, Reactor
from repro.sim.platform import CALM, PlatformConfig
from repro.someip.serialization import INT32
from repro.someip.wire import ReturnCode
from repro.time import ClockModel, MS, SEC

PULSE = ServiceInterface(
    "Pulse", 0x5000,
    methods=[Method("noop", 1)],
    events=[Event("pulse", 0x8001, data=[("n", INT32)])],
)


def build_world(seed=0, switch_config=None, client_clock=None):
    client = CALM if client_clock is None else PlatformConfig(
        num_cores=1, clock=client_clock, dispatch_jitter_ns=0, timer_jitter_ns=0
    )
    hosts = [("server", CALM), ("client", client)]
    return ara.build_world(seed, hosts, switch_config)


class Publisher(Reactor):
    def __init__(self, name, owner, count=10, period=20 * MS, offset=300 * MS):
        super().__init__(name, owner)
        self.out = self.output("out")
        # The offset leaves room for discovery + subscription even when
        # the SD handshake itself rides a degraded network.
        tick = self.timer("tick", offset=offset, period=period)
        self.n = 0

        def fire(ctx):
            if self.n < count:
                self.n += 1
                ctx.set(self.out, self.n)

        self.reaction("fire", triggers=[tick], effects=[self.out], body=fire)


class Subscriber(Reactor):
    def __init__(self, name, owner):
        super().__init__(name, owner)
        self.inp = self.input("inp")
        self.received = []
        # A local timer advances the subscriber's logical time, so late
        # arrivals are actually late relative to something.
        self.timer("local", offset=0, period=1 * MS)
        self.reaction(
            "recv", triggers=[self.inp],
            body=lambda ctx: self.received.append((ctx.tag, ctx.get(self.inp))),
        )


def run_pulse_chain(seed, switch_config, stp, client_clock=None, count=10):
    """A publisher on 'server' streaming to a subscriber on 'client'."""
    world = build_world(seed, switch_config, client_clock)
    config = TransactorConfig(deadline_ns=5 * MS, stp=stp)

    server_process = AraProcess(world.platform("server"), "pub", tag_aware=True)
    server_env = Environment(name="pub", timeout=2 * SEC)
    publisher = Publisher("publisher", server_env, count=count)
    skeleton = server_process.create_skeleton(PULSE, 1)
    skeleton.implement("noop", lambda: None)
    tx = ServerEventTransactor("tx", server_env, server_process, skeleton,
                               "pulse", config)
    server_env.connect(publisher.out, tx.inp)
    skeleton.offer()
    server_env.start(world.platform("server"))

    client_process = AraProcess(world.platform("client"), "sub", tag_aware=True)
    client_env = Environment(name="sub", timeout=3 * SEC)
    subscriber = Subscriber("subscriber", client_env)
    holder = {}

    def setup():
        proxy = yield from client_process.find_service(PULSE, 1)
        rx = ClientEventTransactor("rx", client_env, client_process, proxy,
                                   "pulse", config)
        client_env.connect(rx.out, subscriber.inp)
        client_env.start(world.platform("client"))
        holder["rx"] = rx

    client_process.spawn("setup", setup())
    world.run_for(5 * SEC)
    return subscriber, holder["rx"], tx


class TestLatencyAssumption:
    def test_sound_latency_bound_no_violations(self):
        switch_config = SwitchConfig(latency=ConstantLatency(2 * MS), ns_per_byte=0)
        stp = StpConfig(latency_bound_ns=5 * MS)
        subscriber, rx, tx = run_pulse_chain(0, switch_config, stp)
        assert rx.stp_violations == 0
        assert [value for _, value in subscriber.received] == list(range(1, 11))

    def test_latency_spikes_above_bound_are_counted(self):
        """Actual latency occasionally exceeds the assumed L."""
        switch_config = SwitchConfig(
            latency=SpikyLatency(ConstantLatency(2 * MS), 0.5, 30 * MS),
            ns_per_byte=0,
        )
        stp = StpConfig(latency_bound_ns=5 * MS)
        subscriber, rx, tx = run_pulse_chain(1, switch_config, stp)
        assert rx.stp_violations > 0
        # Nothing is silently lost: every pulse still arrives...
        assert sorted(value for _, value in subscriber.received) == list(range(1, 11))

    def test_generous_bound_absorbs_spikes(self):
        switch_config = SwitchConfig(
            latency=SpikyLatency(ConstantLatency(2 * MS), 0.5, 30 * MS),
            ns_per_byte=0,
        )
        stp = StpConfig(latency_bound_ns=40 * MS)
        subscriber, rx, tx = run_pulse_chain(1, switch_config, stp)
        assert rx.stp_violations == 0
        tags = [tag for tag, _ in subscriber.received]
        assert tags == sorted(tags)


class TestClockAssumption:
    def test_clock_skew_above_bound_is_counted(self):
        """The subscriber's clock runs ahead of the publisher's by more
        than the assumed E: arrivals land in the subscriber's past."""
        switch_config = SwitchConfig(latency=ConstantLatency(1 * MS), ns_per_byte=0)
        stp = StpConfig(latency_bound_ns=2 * MS, clock_error_ns=0)
        ahead = ClockModel(offset_ns=20 * MS)
        subscriber, rx, tx = run_pulse_chain(
            0, switch_config, stp, client_clock=ahead
        )
        assert rx.stp_violations > 0

    def test_skew_within_bound_is_fine(self):
        switch_config = SwitchConfig(latency=ConstantLatency(1 * MS), ns_per_byte=0)
        stp = StpConfig(latency_bound_ns=2 * MS, clock_error_ns=25 * MS)
        ahead = ClockModel(offset_ns=20 * MS)
        subscriber, rx, tx = run_pulse_chain(
            0, switch_config, stp, client_clock=ahead
        )
        assert rx.stp_violations == 0


class TestDeadlinePolicies:
    def _publisher_with_slow_reaction(self, drop: bool):
        world = build_world(0)
        stp = StpConfig(latency_bound_ns=5 * MS)
        config = TransactorConfig(
            deadline_ns=1 * MS, stp=stp, drop_on_deadline_miss=drop
        )
        process = AraProcess(world.platform("server"), "pub", tag_aware=True)
        env = Environment(name="pub", timeout=1 * SEC)

        class SlowPublisher(Reactor):
            def __init__(self, name, owner):
                super().__init__(name, owner)
                self.out = self.output("out")
                tick = self.timer("tick", offset=10 * MS, period=50 * MS)
                self.n = 0

                def fire(ctx):
                    if self.n < 3:
                        self.n += 1
                        ctx.set(self.out, self.n)

                # Execution cost far above the transactor deadline.
                self.reaction("fire", triggers=[tick], effects=[self.out],
                              body=fire, exec_time=10 * MS)

        publisher = SlowPublisher("publisher", env)
        skeleton = process.create_skeleton(PULSE, 1)
        skeleton.implement("noop", lambda: None)
        tx = ServerEventTransactor("tx", env, process, skeleton, "pulse", config)
        env.connect(publisher.out, tx.inp)
        skeleton.offer()
        env.start(world.platform("server"))

        client_process = AraProcess(world.platform("client"), "sub", tag_aware=True)
        client_env = Environment(name="sub", timeout=2 * SEC)
        subscriber = Subscriber("subscriber", client_env)

        def setup():
            proxy = yield from client_process.find_service(PULSE, 1)
            rx = ClientEventTransactor(
                "rx", client_env, client_process, proxy, "pulse",
                TransactorConfig(deadline_ns=1 * MS, stp=stp),
            )
            client_env.connect(rx.out, subscriber.inp)
            client_env.start(world.platform("client"))

        client_process.spawn("setup", setup())
        world.run_for(4 * SEC)
        return subscriber, tx

    def test_drop_policy_loses_messages_but_counts(self):
        subscriber, tx = self._publisher_with_slow_reaction(drop=True)
        assert tx.deadline_misses == 3
        assert subscriber.received == []

    def test_forward_late_policy_delivers_with_physical_tags(self):
        subscriber, tx = self._publisher_with_slow_reaction(drop=False)
        assert tx.deadline_misses == 3
        assert [value for _, value in subscriber.received] == [1, 2, 3]


class TestMiddlewareFailures:
    def test_request_timeout_on_lossy_network(self):
        from tests.conftest import build_ap_world, make_process
        from repro.ara.proxy import MethodCallError

        world = build_ap_world(
            0, switch_config=SwitchConfig(drop_probability=1.0)
        )
        # SD also uses the network: offer directly into the local daemon
        # is not enough, so talk to a same-host server via loopback...
        # loopback also drops; assert the timeout path instead.
        server = make_process(world, "p1", "server")
        skeleton = server.create_skeleton(PULSE, 1)
        skeleton.implement("noop", lambda: None)
        skeleton.offer()
        client = make_process(world, "p1", "client")
        outcomes = []

        def main():
            proxy = yield from client.find_service(PULSE, 1)
            future = proxy.call("noop", timeout_ns=300 * MS)
            try:
                yield from future.get()
                outcomes.append("ok")
            except MethodCallError as error:
                outcomes.append(error.return_code)

        client.spawn("main", main())
        world.run_for(3 * SEC)
        assert outcomes == [ReturnCode.E_TIMEOUT]

    def test_stop_offer_makes_service_undiscoverable(self):
        from tests.conftest import build_ap_world, make_process
        from repro.errors import ServiceNotAvailableError

        world = build_ap_world(0)
        server = make_process(world, "p1", "server")
        skeleton = server.create_skeleton(PULSE, 1)
        skeleton.implement("noop", lambda: None)
        skeleton.offer()
        world.run_for(200 * MS)
        skeleton.stop_offer()
        world.run_for(200 * MS)
        client = make_process(world, "p2", "client")
        outcomes = []

        def main():
            try:
                yield from client.find_service(PULSE, 1, timeout_ns=500 * MS)
                outcomes.append("found")
            except ServiceNotAvailableError:
                outcomes.append("gone")

        client.spawn("main", main())
        world.run_for(2 * SEC)
        assert outcomes == ["gone"]
