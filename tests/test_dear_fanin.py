"""Fan-in determinism: DEAR's answer to nondeterminism source 2.

Source 2 is "the order in which SWCs process incoming messages is
undefined" — two peers talking to the same SWC may be served in either
order.  Under DEAR, messages carry tags and the safe-to-process rule
guarantees the consumer handles them in *tag* order, however the
network interleaves them.  This test runs two independent publishers on
different ECUs into one consumer and checks the merged order is the tag
order, identically for every seed.
"""

from repro.ara import AraProcess, Event, Method, ServiceInterface, build_world
from repro.dear import (
    ClientEventTransactor,
    ServerEventTransactor,
    StpConfig,
    TransactorConfig,
)
from repro.network import SwitchConfig, UniformLatency
from repro.reactors import Environment, Reactor
from repro.sim.platform import CALM
from repro.someip.serialization import INT32, STRING
from repro.time import MS, SEC

CHANNEL_A = ServiceInterface(
    "ChannelA", 0x7001,
    methods=[Method("noop", 1)],
    events=[Event("data", 0x8001, data=[("label", STRING), ("n", INT32)])],
)
CHANNEL_B = ServiceInterface(
    "ChannelB", 0x7002,
    methods=[Method("noop", 1)],
    events=[Event("data", 0x8001, data=[("label", STRING), ("n", INT32)])],
)

CONFIG = TransactorConfig(deadline_ns=5 * MS, stp=StpConfig(latency_bound_ns=10 * MS))


class _Publisher(Reactor):
    """Publishes (label, n) on a timer with a per-publisher phase."""

    def __init__(self, name, owner, label, offset, period, count):
        super().__init__(name, owner)
        self.out = self.output("out")
        tick = self.timer("tick", offset=offset, period=period)
        self.n = 0

        def fire(ctx):
            if self.n < count:
                self.n += 1
                ctx.set(self.out, {"label": label, "n": self.n})

        self.reaction("fire", triggers=[tick], effects=[self.out], body=fire)


class _Merger(Reactor):
    """Consumes both channels; records the merged order."""

    def __init__(self, name, owner):
        super().__init__(name, owner)
        self.a_in = self.input("a_in")
        self.b_in = self.input("b_in")
        self.merged = []

        def on_any(ctx):
            for port in (self.a_in, self.b_in):
                if ctx.is_present(port):
                    data = ctx.get(port)
                    self.merged.append((ctx.tag, data["label"], data["n"]))

        self.reaction("merge", triggers=[self.a_in, self.b_in], body=on_any)


def run_fanin(seed: int):
    # Wild latency spread: arrival interleaving varies strongly by seed.
    world = build_world(
        seed,
        [(host, CALM) for host in ("ecu-a", "ecu-b", "ecu-c")],
        SwitchConfig(latency=UniformLatency(200_000, 8 * MS)),
    )

    def make_publisher(host, interface, label, offset):
        process = AraProcess(world.platform(host), f"pub-{label}", tag_aware=True)
        env = Environment(name=f"pub-{label}", timeout=3 * SEC, trace_origin=0)
        publisher = _Publisher(
            "publisher", env, label, offset=400 * MS + offset,
            period=20 * MS, count=8,
        )
        skeleton = process.create_skeleton(interface, 1)
        skeleton.implement("noop", lambda: None)
        tx = ServerEventTransactor("tx", env, process, skeleton, "data", CONFIG)
        env.connect(publisher.out, tx.inp)
        skeleton.offer()
        env.start(world.platform(host))

    # Offset 7 ms: A's and B's tags interleave rather than coincide.
    make_publisher("ecu-a", CHANNEL_A, "A", 0)
    make_publisher("ecu-b", CHANNEL_B, "B", 7 * MS)

    consumer_process = AraProcess(world.platform("ecu-c"), "merger", tag_aware=True)
    consumer_env = Environment(name="merger", timeout=4 * SEC, trace_origin=0)
    merger = _Merger("merger", consumer_env)

    def setup():
        proxy_a = yield from consumer_process.find_service(CHANNEL_A, 1)
        proxy_b = yield from consumer_process.find_service(CHANNEL_B, 1)
        rx_a = ClientEventTransactor("rx_a", consumer_env, consumer_process,
                                     proxy_a, "data", CONFIG)
        rx_b = ClientEventTransactor("rx_b", consumer_env, consumer_process,
                                     proxy_b, "data", CONFIG)
        consumer_env.connect(rx_a.out, merger.a_in)
        consumer_env.connect(rx_b.out, merger.b_in)
        consumer_env.start(world.platform("ecu-c"))

    consumer_process.spawn("setup", setup())
    world.run_for(6 * SEC)
    return merger, consumer_env


class TestFanInDeterminism:
    def test_all_events_merged_in_tag_order(self):
        merger, _env = run_fanin(0)
        assert len(merger.merged) == 16
        tags = [tag for tag, _label, _n in merger.merged]
        assert tags == sorted(tags)

    def test_interleaving_alternates_by_tag_phase(self):
        """With a 7 ms phase offset on a 20 ms period, A and B strictly
        alternate in tag order."""
        merger, _env = run_fanin(0)
        labels = [label for _tag, label, _n in merger.merged]
        assert labels == ["A", "B"] * 8

    def test_merge_order_identical_across_seeds(self):
        """The punchline: wildly different network interleavings (the
        latency spread spans 0.2-8 ms), identical logical merge."""
        merges = set()
        traces = set()
        for seed in range(4):
            merger, env = run_fanin(seed)
            merges.add(tuple(merger.merged))
            traces.add(env.trace.fingerprint())
        assert len(merges) == 1
        assert len(traces) == 1
