"""Unit tests for the network substrate."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import NetworkError
from repro.network import (
    ConstantLatency,
    GammaLatency,
    NetworkInterface,
    SpikyLatency,
    Switch,
    SwitchConfig,
    UniformLatency,
)
from repro.sim import World
from repro.sim.platform import CALM
from repro.time import MS, US


def make_net(seed=0, config=None):
    world = World(seed)
    a = world.add_platform("a", CALM)
    b = world.add_platform("b", CALM)
    switch = Switch(world.sim, world.rng.stream("net"), config)
    world.attach_network(switch)
    nic_a = NetworkInterface(a, switch)
    nic_b = NetworkInterface(b, switch)
    return world, nic_a, nic_b


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(500)
        assert model.sample(random.Random(0)) == 500
        assert model.bound() == 500

    def test_uniform_within_range(self):
        model = UniformLatency(100, 200)
        rng = random.Random(1)
        samples = [model.sample(rng) for _ in range(200)]
        assert all(100 <= s <= 200 for s in samples)
        assert model.bound() == 200

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformLatency(200, 100)
        with pytest.raises(ValueError):
            UniformLatency(-5, 100)

    def test_gamma_respects_bound(self):
        model = GammaLatency(base_ns=1000, shape=2.0, scale_ns=500)
        rng = random.Random(2)
        bound = model.bound()
        for _ in range(500):
            sample = model.sample(rng)
            assert 1000 <= sample <= bound

    def test_spiky_bound_excludes_spike(self):
        base = ConstantLatency(100)
        model = SpikyLatency(base, spike_probability=0.5, spike_ns=10_000)
        rng = random.Random(3)
        samples = {model.sample(rng) for _ in range(100)}
        assert samples == {100, 10_100}
        assert model.bound() == 100  # deliberately ignores the spike

    @given(st.integers(min_value=0, max_value=10**9))
    def test_constant_bound_equals_sample(self, value):
        model = ConstantLatency(value)
        assert model.sample(random.Random(0)) == model.bound()


class TestDelivery:
    def test_frame_reaches_destination(self):
        world, nic_a, nic_b = make_net()
        src = nic_a.bind(1000)
        dst = nic_b.bind(2000)
        src.send("b", 2000, payload={"k": 1}, size_bytes=64)
        world.run_for(100 * MS)
        assert dst.received == 1
        frames = dst.rx.peek_all()
        assert frames[0].payload == {"k": 1}
        assert frames[0].src_host == "a"
        assert frames[0].src_port == 1000

    def test_unknown_host_raises(self):
        world, nic_a, _ = make_net()
        src = nic_a.bind(1000)
        with pytest.raises(NetworkError):
            src.send("nowhere", 1, payload=None, size_bytes=10)

    def test_unbound_port_drops_silently(self):
        world, nic_a, nic_b = make_net()
        src = nic_a.bind(1000)
        src.send("b", 9999, payload="x", size_bytes=10)
        world.run_for(100 * MS)  # must not raise

    def test_latency_applied(self):
        config = SwitchConfig(latency=ConstantLatency(5 * MS), ns_per_byte=0)
        world, nic_a, nic_b = make_net(config=config)
        src = nic_a.bind(1)
        dst = nic_b.bind(2)
        arrivals = []
        dst.on_receive = lambda frame: arrivals.append(world.now)
        src.send("b", 2, payload=None, size_bytes=0)
        world.run_for(100 * MS)
        assert arrivals == [5 * MS]

    def test_serialization_delay_scales_with_size(self):
        config = SwitchConfig(latency=ConstantLatency(0), ns_per_byte=8)
        world, nic_a, nic_b = make_net(config=config)
        src = nic_a.bind(1)
        dst = nic_b.bind(2)
        arrivals = []
        dst.on_receive = lambda frame: arrivals.append(world.now)
        src.send("b", 2, payload=None, size_bytes=1000)
        world.run_for(1 * MS)
        assert arrivals == [8000]

    def test_loopback_uses_loopback_latency(self):
        config = SwitchConfig(
            latency=ConstantLatency(10 * MS),
            loopback_latency=ConstantLatency(100 * US),
            ns_per_byte=0,
        )
        world, nic_a, _ = make_net(config=config)
        src = nic_a.bind(1)
        dst = nic_a.bind(2)
        arrivals = []
        dst.on_receive = lambda frame: arrivals.append(world.now)
        src.send("a", 2, payload=None, size_bytes=0)
        world.run_for(100 * MS)
        assert arrivals == [100 * US]

    def test_drop_probability(self):
        config = SwitchConfig(drop_probability=1.0)
        world, nic_a, nic_b = make_net(config=config)
        src = nic_a.bind(1)
        dst = nic_b.bind(2)
        src.send("b", 2, payload=None, size_bytes=0)
        world.run_for(100 * MS)
        assert dst.received == 0
        assert world.network.frames_dropped == 1


class TestOrdering:
    def _send_many(self, in_order, seed=0, count=50):
        config = SwitchConfig(
            latency=UniformLatency(100 * US, 5 * MS),
            in_order=in_order,
            ns_per_byte=0,
        )
        world, nic_a, nic_b = make_net(seed=seed, config=config)
        src = nic_a.bind(1)
        dst = nic_b.bind(2)
        received = []
        dst.on_receive = lambda frame: received.append(frame.payload)
        for i in range(count):
            src.send("b", 2, payload=i, size_bytes=0)
        world.run_for(100 * MS)
        return received

    def test_in_order_flow_is_fifo(self):
        for seed in range(5):
            received = self._send_many(in_order=True, seed=seed)
            assert received == sorted(received)

    def test_unordered_flow_can_reorder(self):
        reordered = False
        for seed in range(10):
            received = self._send_many(in_order=False, seed=seed)
            assert sorted(received) == list(range(50))  # nothing lost
            if received != sorted(received):
                reordered = True
        assert reordered, "expected at least one reordering across seeds"


class TestInterfaces:
    def test_duplicate_host_rejected(self):
        world, nic_a, _ = make_net()
        with pytest.raises(NetworkError):
            NetworkInterface(world.platform("a"), world.network)

    def test_duplicate_port_rejected(self):
        world, nic_a, _ = make_net()
        nic_a.bind(5)
        with pytest.raises(NetworkError):
            nic_a.bind(5)

    def test_ephemeral_ports_unique(self):
        world, nic_a, _ = make_net()
        ports = {nic_a.bind().port for _ in range(10)}
        assert len(ports) == 10
        assert all(p >= 49152 for p in ports)

    def test_close_unbinds(self):
        world, nic_a, nic_b = make_net()
        src = nic_a.bind(1)
        dst = nic_b.bind(2)
        dst.close()
        src.send("b", 2, payload="x", size_bytes=1)
        world.run_for(50 * MS)
        assert dst.received == 0

    def test_latency_bound_covers_samples(self):
        config = SwitchConfig(latency=GammaLatency(base_ns=100 * US))
        world, nic_a, nic_b = make_net(config=config)
        src = nic_a.bind(1)
        dst = nic_b.bind(2)
        bound = world.network.latency_bound()
        arrivals = []
        dst.on_receive = lambda frame: arrivals.append(world.now)
        sent_times = []
        for i in range(100):
            world.sim.post_at(i * MS, lambda i=i: (sent_times.append(world.now),
                                                   src.send("b", 2, i, 1400)))
        world.run_for(2000 * MS)
        assert len(arrivals) == 100
        for sent, arrived in zip(sent_times, sorted(arrivals)):
            assert arrived - sent <= bound

    def test_nic_registered_as_attachment(self):
        world, nic_a, _ = make_net()
        assert world.platform("a").attachments["nic"] is nic_a
