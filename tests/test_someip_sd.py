"""Integration tests for SOME/IP service discovery."""


from repro.network import NetworkInterface, Switch
from repro.sim import World
from repro.sim.platform import CALM
from repro.someip import SdConfig, SdDaemon
from repro.time import MS, SEC


def make_world(seed=0, hosts=("a", "b"), sd_config=None):
    world = World(seed)
    switch = Switch(world.sim, world.rng.stream("net"))
    world.attach_network(switch)
    daemons = {}
    for host in hosts:
        platform = world.add_platform(host, CALM)
        nic = NetworkInterface(platform, switch)
        daemons[host] = SdDaemon(platform, nic, sd_config)
    return world, daemons


class TestOfferFind:
    def test_offer_reaches_peer_cache(self):
        world, daemons = make_world()
        daemons["a"].offer(0x1234, 1, major_version=1, rpc_port=40000)
        world.run_for(100 * MS)
        entry = daemons["b"].find(0x1234, 1)
        assert entry is not None
        assert entry.host == "a"
        assert entry.port == 40000
        assert entry.major_version == 1

    def test_find_local_offer(self):
        world, daemons = make_world()
        daemons["a"].offer(0x1234, 1, 1, 40000)
        assert daemons["a"].find(0x1234, 1) is not None

    def test_unknown_service_not_found(self):
        world, daemons = make_world()
        world.run_for(100 * MS)
        assert daemons["b"].find(0x9999, 1) is None

    def test_instance_id_distinguishes(self):
        world, daemons = make_world()
        daemons["a"].offer(0x1234, 1, 1, 40000)
        daemons["a"].offer(0x1234, 2, 1, 40001)
        world.run_for(100 * MS)
        assert daemons["b"].find(0x1234, 1).port == 40000
        assert daemons["b"].find(0x1234, 2).port == 40001

    def test_stop_offer_purges_cache(self):
        world, daemons = make_world()
        daemons["a"].offer(0x1234, 1, 1, 40000)
        world.run_for(100 * MS)
        assert daemons["b"].find(0x1234, 1) is not None
        daemons["a"].stop_offer(0x1234, 1)
        world.run_for(100 * MS)
        assert daemons["b"].find(0x1234, 1) is None

    def test_ttl_expiry_without_renewal(self):
        config = SdConfig(cyclic_offer_period_ns=100 * SEC, ttl_ns=1 * SEC)
        world, daemons = make_world(sd_config=config)
        daemons["a"].offer(0x1234, 1, 1, 40000)
        world.run_for(500 * MS)
        assert daemons["b"].find(0x1234, 1) is not None
        world.run_for(2 * SEC)
        assert daemons["b"].find(0x1234, 1) is None

    def test_cyclic_offer_renews_ttl(self):
        config = SdConfig(cyclic_offer_period_ns=500 * MS, ttl_ns=1 * SEC)
        world, daemons = make_world(sd_config=config)
        daemons["a"].offer(0x1234, 1, 1, 40000)
        world.run_for(5 * SEC)
        assert daemons["b"].find(0x1234, 1) is not None


class TestFindBlocking:
    def test_blocks_until_offer(self):
        world, daemons = make_world()
        results = []

        def finder():
            entry = yield from daemons["b"].find_blocking(0x1234, 1, 10 * SEC)
            results.append(entry)

        world.platform("b").spawn("finder", finder())
        world.sim.post_at(
            2 * SEC, lambda: daemons["a"].offer(0x1234, 1, 1, 40000)
        )
        world.run_for(10 * SEC)
        assert len(results) == 1
        assert results[0] is not None
        assert results[0].host == "a"

    def test_timeout_returns_none(self):
        world, daemons = make_world()
        results = []

        def finder():
            entry = yield from daemons["b"].find_blocking(0x4321, 1, 500 * MS)
            results.append(entry)

        world.platform("b").spawn("finder", finder())
        world.run_for(2 * SEC)
        assert results == [None]

    def test_immediate_return_when_cached(self):
        world, daemons = make_world()
        daemons["a"].offer(0x1234, 1, 1, 40000)
        world.run_for(100 * MS)
        results = []

        def finder():
            entry = yield from daemons["b"].find_blocking(0x1234, 1, 1 * SEC)
            results.append((entry, world.now))

        start = world.now
        world.platform("b").spawn("finder", finder())
        world.run_for(1 * SEC)
        entry, finished = results[0]
        assert entry is not None
        assert finished - start < 10 * MS


class TestSubscriptions:
    def test_subscribe_registers_subscriber(self):
        world, daemons = make_world()
        daemons["a"].offer(0x1234, 1, 1, 40000)
        world.run_for(100 * MS)
        entry = daemons["b"].find(0x1234, 1)
        daemons["b"].subscribe(entry, 0x8001, notify_port=41000)
        world.run_for(100 * MS)
        assert daemons["a"].subscribers(0x1234, 1, 0x8001) == [("b", 41000)]

    def test_subscription_to_unoffered_service_ignored(self):
        world, daemons = make_world()
        from repro.someip.sd import ServiceEntry

        fake = ServiceEntry(0x7777, 1, 1, "a", 12345)
        daemons["b"].subscribe(fake, 0x8001, notify_port=41000)
        world.run_for(100 * MS)
        assert daemons["a"].subscribers(0x7777, 1, 0x8001) == []

    def test_subscription_expires_without_renewal(self):
        # Cut renewals by using a huge cyclic period after subscribing.
        config = SdConfig(cyclic_offer_period_ns=100 * SEC, ttl_ns=1 * SEC)
        world, daemons = make_world(sd_config=config)
        daemons["a"].offer(0x1234, 1, 1, 40000)
        # Let the initial offer propagate via the find path.
        results = []

        def subscriber():
            entry = yield from daemons["b"].find_blocking(0x1234, 1, 5 * SEC)
            daemons["b"].subscribe(entry, 0x8001, notify_port=41000)
            results.append(entry)

        world.platform("b").spawn("sub", subscriber())
        world.run_for(500 * MS)
        assert results
        assert daemons["a"].subscribers(0x1234, 1, 0x8001)
        world.run_for(3 * SEC)
        assert daemons["a"].subscribers(0x1234, 1, 0x8001) == []

    def test_multiple_subscribers(self):
        world, daemons = make_world(hosts=("a", "b", "c"))
        daemons["a"].offer(0x1234, 1, 1, 40000)
        world.run_for(100 * MS)
        for host, port in (("b", 41000), ("c", 42000)):
            entry = daemons[host].find(0x1234, 1)
            daemons[host].subscribe(entry, 0x8001, notify_port=port)
        world.run_for(100 * MS)
        assert daemons["a"].subscribers(0x1234, 1, 0x8001) == [
            ("b", 41000),
            ("c", 42000),
        ]

    def test_expired_subscribers_dropped_live_ones_sorted(self):
        world, daemons = make_world()
        sd = daemons["a"]
        world.run_for(10 * MS)
        now = world.sim.now
        key = (0x1234, 1, 0x8001)
        sd._subscribers[key] = {
            ("c", 2): now + SEC,
            ("b", 9): now,
            ("a", 5): now + SEC,
            ("b", 1): now - 1,
        }
        assert sd.subscribers(*key) == [("a", 5), ("c", 2)]
        assert sd._subscribers[key] == {("c", 2): now + SEC, ("a", 5): now + SEC}
        sd._subscribers[key] = {("b", 1): now}
        assert sd.subscribers(*key) == []
        assert sd._subscribers[key] == {}
        assert sd.subscribers(0x1234, 1, 0x8002) == []
        assert (0x1234, 1, 0x8002) not in sd._subscribers
