"""Runtime microbenchmarks (proper repeated-measurement benchmarks).

Not a paper artifact; characterizes the reproduction's substrate so
regressions in the simulator, the reactor scheduler and the SOME/IP
stack are visible.  These use pytest-benchmark's normal repetition.
"""

import time

from repro.apps.brake.data import FRAME_SPEC
from repro.reactors import Environment, Reactor
from repro.sim import Compute, World
from repro.sim.platform import CALM
from repro.someip import MessageType, SomeIpHeader, SomeIpMessage
from repro.time import MS, US

#: Frame roundtrips per timed call of the SOME/IP roundtrip benchmark.
ROUNDTRIPS = 5_000

# The bare-kernel event-throughput benchmark moved to bench_sim_kernel.py
# (per-shape rates + the floor gate used by CI's kernel-throughput job).


def test_thread_context_switching(benchmark, bench_json):
    """Cost of compute-yield cycles through the CPU scheduler."""

    def run():
        world = World(0)
        platform = world.add_platform("p", CALM)
        done = []

        def body():
            for _ in range(200):
                yield Compute(1 * US)
            done.append(1)

        for index in range(5):
            platform.spawn(f"t{index}", body())
        world.run_to_completion()
        return len(done)

    assert benchmark(run) == 5
    bench_json.record(threads=5, switches_per_thread=200).timing(benchmark)


def test_reactor_fast_mode_throughput(benchmark, bench_json):
    """Events-per-second of the reactor scheduler in fast mode."""

    def run():
        env = Environment(timeout=1_000 * MS, trace_enabled=False)

        class Chain(Reactor):
            def __init__(self, name, owner):
                super().__init__(name, owner)
                self.inp = self.input("inp")
                self.out = self.output("out")
                self.reaction(
                    "fwd",
                    triggers=[self.inp],
                    effects=[self.out],
                    body=lambda ctx: ctx.set(self.out, ctx.get(self.inp)),
                )

        class Source(Reactor):
            def __init__(self, name, owner):
                super().__init__(name, owner)
                self.out = self.output("out")
                tick = self.timer("tick", offset=0, period=1 * MS)
                self.reaction(
                    "emit", triggers=[tick], effects=[self.out],
                    body=lambda ctx: ctx.set(self.out, 1),
                )

        source = Source("source", env)
        stages = [Chain(f"stage{i}", env) for i in range(10)]
        env.connect(source.out, stages[0].inp)
        for left, right in zip(stages, stages[1:]):
            env.connect(left.out, right.inp)
        env.execute()
        return env.scheduler.reactions_executed

    reactions = benchmark(run)
    bench_json.record(reactions=reactions).timing(benchmark)
    assert reactions > 10_000


def test_someip_message_roundtrip(benchmark, bench_json):
    """Roundtrips/s of a brake camera frame through a SOME/IP notification.

    One roundtrip is the stock brake's per-hop wire work: serialize the
    frame payload, pack the message, unpack it and deserialize the
    payload.
    """
    vehicle = {
        "vehicle_id": 3,
        "distance_m": 42.5,
        "lateral_m": -0.25,
        "speed_mps": 13.875,
    }
    frame = {
        "seq": 17,
        "capture_time_ns": 850_000_000,
        "ego_speed_mps": 27.5,
        "lane_center_m": 0.125,
        "lane_width_m": 3.5,
        "vehicles": [vehicle, {**vehicle, "vehicle_id": 4}],
    }
    header = SomeIpHeader(
        service_id=0x0A01,
        method_id=0x8001,
        client_id=0,
        session_id=9,
        message_type=MessageType.NOTIFICATION,
    )

    # Generate the frame codec before timing.
    FRAME_SPEC.from_bytes(FRAME_SPEC.to_bytes(frame))

    def run():
        started = time.perf_counter()
        for _ in range(ROUNDTRIPS):
            payload = FRAME_SPEC.to_bytes(frame)
            message = SomeIpMessage.unpack(SomeIpMessage(header, payload).pack())
            decoded = FRAME_SPEC.from_bytes(message.payload)
        return decoded, time.perf_counter() - started

    decoded, elapsed = benchmark(run)
    assert decoded == frame
    bench_json.record(
        roundtrips=ROUNDTRIPS, roundtrips_per_s=round(ROUNDTRIPS / elapsed)
    ).timing(benchmark)
