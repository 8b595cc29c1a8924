"""Distributed deterministic computation over real (simulated) SOME/IP.

Builds a custom two-ECU application from scratch with the public DEAR
API — a sensor-fusion service on one ECU queried by a planner on the
other — demonstrating:

* service interface definition (methods + events + a field),
* transactor generation from the interface (``repro.dear.codegen``),
* tagged method calls and event streams crossing the network,
* safe-to-process arithmetic visible in the received tags,
* an identical logical trace for every platform seed.

Run:  python examples/distributed_pipeline.py
"""

from repro.ara import (
    AraProcess,
    Event,
    Field,
    Method,
    ServiceInterface,
    build_world,
)
from repro.dear import (
    MethodCall,
    MethodReturn,
    StpConfig,
    TransactorConfig,
    generate_client_transactors,
    generate_server_transactors,
)
from repro.reactors import Environment, Reactor
from repro.sim.platform import CALM
from repro.someip.serialization import FLOAT64, INT32
from repro.time import MS, SEC, format_duration

FUSION = ServiceInterface(
    name="SensorFusion",
    service_id=0x4242,
    methods=[
        Method("query_confidence", 0x0001,
               arguments=[("track_id", INT32)],
               returns=[("confidence", FLOAT64)]),
    ],
    events=[Event("track", 0x8001,
                  data=[("track_id", INT32), ("distance", FLOAT64)])],
    fields=[Field("sensitivity", FLOAT64)],
)

CONFIG = TransactorConfig(deadline_ns=5 * MS, stp=StpConfig(latency_bound_ns=8 * MS))


class FusionLogic(Reactor):
    """Server logic: publishes tracks, answers confidence queries."""

    def __init__(self, name, owner):
        super().__init__(name, owner)
        self.track_out = self.output("track_out")
        self.query_in = self.input("query_in")
        self.answer_out = self.output("answer_out")
        tick = self.timer("tick", offset=20 * MS, period=40 * MS)
        self.count = 0

        def publish(ctx):
            self.count += 1
            ctx.set(self.track_out,
                    {"track_id": self.count, "distance": 50.0 - self.count})

        def answer(ctx):
            call: MethodCall = ctx.get(self.query_in)
            confidence = 1.0 / (1 + call.arguments)
            ctx.set(self.answer_out, MethodReturn(call.call_id, confidence))

        self.reaction("publish", triggers=[tick], effects=[self.track_out],
                      body=publish)
        self.reaction("answer", triggers=[self.query_in],
                      effects=[self.answer_out], body=answer)


class PlannerLogic(Reactor):
    """Client logic: reacts to tracks, queries their confidence."""

    def __init__(self, name, owner):
        super().__init__(name, owner)
        self.track_in = self.input("track_in")
        self.query_out = self.output("query_out")
        self.answer_in = self.input("answer_in")
        self.log = []

        def on_track(ctx):
            track = ctx.get(self.track_in)
            self.log.append(("track", ctx.tag, track["track_id"]))
            ctx.set(self.query_out, track["track_id"])

        def on_answer(ctx):
            reply = ctx.get(self.answer_in)
            self.log.append(("confidence", ctx.tag, round(reply.value, 4)))
            if len([entry for entry in self.log if entry[0] == "confidence"]) >= 4:
                ctx.request_stop()

        self.reaction("on_track", triggers=[self.track_in],
                      effects=[self.query_out], body=on_track)
        self.reaction("on_answer", triggers=[self.answer_in], body=on_answer)


def run(seed: int):
    world = build_world(seed, [("fusion-ecu", CALM), ("planner-ecu", CALM)])

    server_process = AraProcess(world.platform("fusion-ecu"), "fusion",
                                tag_aware=True)
    server_env = Environment(name="fusion", timeout=2 * SEC, trace_origin=0)
    skeleton = server_process.create_skeleton(FUSION, 1)
    server_binding = generate_server_transactors(
        server_env, server_process, skeleton, CONFIG,
        field_initials={"sensitivity": 0.5},
    )
    logic = FusionLogic("logic", server_env)
    server_env.connect(logic.track_out, server_binding.events["track"].inp)
    server_env.connect(
        server_binding.methods["query_confidence"].request_out, logic.query_in
    )
    server_env.connect(
        logic.answer_out, server_binding.methods["query_confidence"].response_in
    )
    skeleton.offer()
    server_env.start(world.platform("fusion-ecu"))

    client_process = AraProcess(world.platform("planner-ecu"), "planner",
                                tag_aware=True)
    client_env = Environment(name="planner", timeout=2 * SEC, trace_origin=0)
    planner = PlannerLogic("logic", client_env)

    def setup():
        proxy = yield from client_process.find_service(FUSION, 1)
        binding = generate_client_transactors(
            client_env, client_process, proxy, CONFIG
        )
        client_env.connect(binding.events["track"].out, planner.track_in)
        client_env.connect(
            planner.query_out, binding.methods["query_confidence"].request
        )
        client_env.connect(
            binding.methods["query_confidence"].response, planner.answer_in
        )
        client_env.start(world.platform("planner-ecu"))

    client_process.spawn("setup", setup())
    world.run_for(5 * SEC)
    return planner, client_env


def main():
    planner, env = run(seed=0)
    origin = env.scheduler.start_time
    print("Planner log (logical tags relative to planner start):")
    for kind, tag, value in planner.log:
        relative = tag.time - origin
        print(f"  {format_duration(relative):>8}  {kind:<11} {value}")

    fingerprints = {run(seed)[1].trace.fingerprint() for seed in range(3)}
    print("\nSeeds vary thread scheduling order and network latencies;")
    print(f"logical trace identical across 3 seeds: {len(fingerprints) == 1}")


if __name__ == "__main__":
    main()
