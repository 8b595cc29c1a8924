"""The Figure 1 client/server application.

The paper opens with this example: a client manipulates a server-side
state variable through non-blocking method calls::

    s.set_value(1);  s.add(2);  result = s.get_value();

The server enforces mutual exclusion between method executions, but the
AP runtime maps each invocation to its own thread, so the *order* of
the three operations is up to the thread scheduler and the printed
result is one of {0, 1, 2, 3} (Figure 1's histogram).

:func:`run_nondet` reproduces that app on the stock AP stack;
:func:`run_det` is the DEAR version, where the client fires the same
three calls (still without waiting for results) as tagged reactor
events 1 ms apart and tag-order processing makes the result always 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ara import (
    AraProcess,
    Method,
    MethodCallProcessingMode,
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
from repro.network import SwitchConfig, UniformLatency
from repro.reactors import Environment, Reactor
from repro.sim import World
from repro.sim.platform import PlatformConfig
from repro.someip.serialization import INT32
from repro.time import MS, SEC

#: Platform model for this app: thread-wakeup variance (hundreds of µs on
#: a loaded Atom board) well above the µs-scale spacing of back-to-back
#: SOME/IP messages — the regime in which Figure 1's histogram arises.
FIGURE1_PLATFORM = PlatformConfig(
    num_cores=4, dispatch_jitter_ns=400_000, timer_jitter_ns=500_000
)

COUNTER_INTERFACE = ServiceInterface(
    name="Counter",
    service_id=0x00C0,
    methods=[
        Method("set_value", 0x0001, arguments=[("value", INT32)]),
        Method("add", 0x0002, arguments=[("amount", INT32)]),
        Method("get_value", 0x0003, returns=[("value", INT32)]),
    ],
)


@dataclass
class CounterResult:
    """Outcome of one run of the counter application."""

    printed_value: int
    seed: int


def _counter_world(
    seed: int,
    platform_config: PlatformConfig,
    in_order: bool = True,
    two_clients: bool = False,
) -> World:
    # A quiet switched LAN: latency variation well below the thread
    # dispatch jitter, so the server-side scheduler — not the network —
    # decides the processing order, as in the paper's analysis.
    switch_config = SwitchConfig(
        latency=UniformLatency(180_000, 260_000), in_order=in_order
    )
    hosts = ["server-ecu", "client-ecu"] + (["client2-ecu"] if two_clients else [])
    return build_world(seed, [(host, platform_config) for host in hosts], switch_config)


class _CounterServer:
    """The stock server: a state variable behind three methods.

    Each implementation is atomic (the server "enforces mutual exclusion
    between the execution of method invocations"), but invocations run
    on pool threads in scheduler-determined order.
    """

    def __init__(self, process, processing_mode=MethodCallProcessingMode.EVENT):
        self.value = 0
        self.skeleton = process.create_skeleton(
            COUNTER_INTERFACE, 1, processing_mode=processing_mode
        )
        self.skeleton.implement("set_value", self._set_value)
        self.skeleton.implement("add", self._add)
        self.skeleton.implement("get_value", lambda: self.value)
        self.skeleton.offer()

    def _set_value(self, value):
        self.value = value

    def _add(self, amount):
        self.value += amount


def run_nondet(
    seed: int, platform_config: PlatformConfig = FIGURE1_PLATFORM
) -> CounterResult:
    """Run the paper's Figure 1 client on the stock AP stack.

    The naive client of Figure 1: three non-blocking calls, only the
    last future is awaited.
    """
    return run_variant(seed, platform_config=platform_config)


def run_variant(
    seed: int,
    processing_mode=MethodCallProcessingMode.EVENT,
    in_order: bool = True,
    two_clients: bool = False,
    platform_config: PlatformConfig = FIGURE1_PLATFORM,
) -> CounterResult:
    """The counter app with the nondeterminism sources individually togglable.

    Used by the source-ablation benchmark (Section II.B):

    * ``processing_mode``: the server's method-call processing mode —
      ``EVENT`` (default, thread-per-invocation: source 1 on) or
      ``EVENT_SINGLE_THREAD`` (source 1 off within the server);
    * ``in_order``: per-flow FIFO transport (source 3 off) or unordered
      datagrams (source 3 on);
    * ``two_clients``: a second client issues the ``add`` concurrently
      from another ECU, exposing source 2 (undefined processing order of
      messages from different clients) even with a serialized server.
    """
    world = _counter_world(seed, platform_config, in_order, two_clients)
    server_process = AraProcess(world.platform("server-ecu"), "server")
    _CounterServer(server_process, processing_mode)
    printed: list[int] = []
    client_process = AraProcess(world.platform("client-ecu"), "client")

    def client_main():
        proxy = yield from client_process.find_service(COUNTER_INTERFACE, 1)
        proxy.call("set_value", value=1)
        if not two_clients:
            proxy.call("add", amount=2)
        result = proxy.call("get_value")
        value = yield from result.get()
        printed.append(value)

    client_process.spawn("main", client_main())
    if two_clients:
        second_process = AraProcess(world.platform("client2-ecu"), "client2")

        def second_main():
            proxy = yield from second_process.find_service(COUNTER_INTERFACE, 1)
            proxy.call("add", amount=2)

        second_process.spawn("main", second_main())
    world.run_for(5 * SEC)
    if not printed:
        raise RuntimeError("client did not finish; simulation horizon too short")
    return CounterResult(printed_value=printed[0], seed=seed)


class _CounterLogic(Reactor):
    """Deterministic server logic behind the three method transactors."""

    def __init__(self, name, owner):
        super().__init__(name, owner)
        self.value = 0
        self.set_in = self.input("set_in")
        self.set_out = self.output("set_out")
        self.add_in = self.input("add_in")
        self.add_out = self.output("add_out")
        self.get_in = self.input("get_in")
        self.get_out = self.output("get_out")
        self.reaction("on_set", triggers=[self.set_in], effects=[self.set_out],
                      body=self._on_set)
        self.reaction("on_add", triggers=[self.add_in], effects=[self.add_out],
                      body=self._on_add)
        self.reaction("on_get", triggers=[self.get_in], effects=[self.get_out],
                      body=self._on_get)

    def _on_set(self, ctx):
        call: MethodCall = ctx.get(self.set_in)
        self.value = call.arguments
        ctx.set(self.set_out, MethodReturn(call.call_id, None))

    def _on_add(self, ctx):
        call: MethodCall = ctx.get(self.add_in)
        self.value += call.arguments
        ctx.set(self.add_out, MethodReturn(call.call_id, None))

    def _on_get(self, ctx):
        call: MethodCall = ctx.get(self.get_in)
        ctx.set(self.get_out, MethodReturn(call.call_id, self.value))


class _CounterClientLogic(Reactor):
    """Fires set/add/get as tagged events 1 ms apart, without waiting."""

    def __init__(self, name, owner):
        super().__init__(name, owner)
        self.set_req = self.output("set_req")
        self.add_req = self.output("add_req")
        self.get_req = self.output("get_req")
        self.get_res = self.input("get_res")
        self.printed: list[int] = []
        t_set = self.timer("t_set", offset=10 * MS)
        t_add = self.timer("t_add", offset=11 * MS)
        t_get = self.timer("t_get", offset=12 * MS)
        self.reaction("send_set", triggers=[t_set], effects=[self.set_req],
                      body=lambda ctx: ctx.set(self.set_req, 1))
        self.reaction("send_add", triggers=[t_add], effects=[self.add_req],
                      body=lambda ctx: ctx.set(self.add_req, 2))
        self.reaction("send_get", triggers=[t_get], effects=[self.get_req],
                      body=lambda ctx: ctx.set(self.get_req, None))
        self.reaction("on_result", triggers=[self.get_res], body=self._on_result)

    def _on_result(self, ctx):
        self.printed.append(ctx.get(self.get_res).value)
        ctx.request_stop()


def run_det(
    seed: int,
    platform_config: PlatformConfig = FIGURE1_PLATFORM,
    config: TransactorConfig | None = None,
) -> CounterResult:
    """Run the DEAR (deterministic) counter application."""
    world = _counter_world(seed, platform_config)
    if config is None:
        config = TransactorConfig(
            deadline_ns=5 * MS, stp=StpConfig(latency_bound_ns=10 * MS)
        )
    server_process = AraProcess(
        world.platform("server-ecu"), "server", tag_aware=True
    )
    server_env = Environment(name="counter-server", timeout=5 * SEC)
    skeleton = server_process.create_skeleton(COUNTER_INTERFACE, 1)
    binding = generate_server_transactors(
        server_env, server_process, skeleton, config
    )
    logic = _CounterLogic("logic", server_env)
    for method, inp, out in (
        ("set_value", logic.set_in, logic.set_out),
        ("add", logic.add_in, logic.add_out),
        ("get_value", logic.get_in, logic.get_out),
    ):
        server_env.connect(binding.methods[method].request_out, inp)
        server_env.connect(out, binding.methods[method].response_in)
    skeleton.offer()
    server_env.start(world.platform("server-ecu"))

    client_process = AraProcess(
        world.platform("client-ecu"), "client", tag_aware=True
    )
    client_env = Environment(name="counter-client", timeout=5 * SEC)
    client_logic = _CounterClientLogic("logic", client_env)

    def client_setup():
        proxy = yield from client_process.find_service(COUNTER_INTERFACE, 1)
        client_binding = generate_client_transactors(
            client_env, client_process, proxy, config
        )
        client_env.connect(
            client_logic.set_req, client_binding.methods["set_value"].request
        )
        client_env.connect(
            client_logic.add_req, client_binding.methods["add"].request
        )
        client_env.connect(
            client_logic.get_req, client_binding.methods["get_value"].request
        )
        client_env.connect(
            client_binding.methods["get_value"].response, client_logic.get_res
        )
        client_env.start(world.platform("client-ecu"))

    client_process.spawn("setup", client_setup())
    world.run_for(10 * SEC)
    if not client_logic.printed:
        raise RuntimeError("deterministic client did not finish")
    return CounterResult(printed_value=client_logic.printed[0], seed=seed)
