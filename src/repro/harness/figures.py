"""One driver per experiment of the reproduction index.

Each function runs its experiment and returns a result object whose
``render()`` produces the text form of the paper artifact.  Benchmarks
under ``benchmarks/`` call these and assert the expected *shapes*.

Every sweep-shaped driver accepts an optional ``sweep``
(:class:`repro.harness.sweep.SweepRunner`): pass one to control worker
count and caching and to collect a throughput summary; omit it and the
driver builds a default runner (``REPRO_WORKERS`` / all cores, cache
on).  Per-seed work is dispatched through module-level functions so it
pickles across the process-pool boundary; results merge in seed order,
so output is bit-identical to a sequential run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, replace
from functools import partial

from repro.analysis.report import ascii_bar_chart, histogram_table, render_table
from repro.analysis.stats import Summary, summarize
from repro.apps import counter
from repro.apps.brake import (
    BrakeScenario,
    run_det_brake_assistant,
    run_nondet_brake_assistant,
)
from repro.apps.brake.instrumentation import ERROR_TYPES, BrakeRunResult
from repro.apps.brake.logic import (
    decide_brake,
    detect_vehicles,
    oracle_commands,
    preprocess,
)
from repro.apps.brake.vision import SceneGenerator
from repro.ara import MethodCallProcessingMode
from repro.harness.config import ScenarioSpec, run_scenario_spec
from repro.harness.sweep import SweepRunner
from repro.let import LetChannel, LetExecutor, LetTask
from repro.sim import World
from repro.sim.platform import MINNOWBOARD
from repro.time.duration import MS


# ---------------------------------------------------------------------------
# FIG1 — the client/server histogram.
# ---------------------------------------------------------------------------


@dataclass
class Figure1Result:
    """Outcome histograms of the stock and DEAR counter apps."""

    nondet_counts: Counter
    det_counts: Counter

    def probabilities(self) -> dict[int, float]:
        """Outcome probabilities of the stock app."""
        total = sum(self.nondet_counts.values())
        return {k: v / total for k, v in sorted(self.nondet_counts.items())}

    def render(self) -> str:
        """Figure 1's histogram, plus the DEAR contrast."""
        parts = [
            histogram_table(
                self.nondet_counts,
                "Figure 1 - printed value, stock AP (probability):",
            ),
            histogram_table(
                self.det_counts,
                "Same client under DEAR (probability):",
            ),
        ]
        return "\n\n".join(parts)


def figure1(
    nondet_seeds: int = 300,
    det_seeds: int = 10,
    sweep: SweepRunner | None = None,
) -> Figure1Result:
    """Reproduce Figure 1: run the counter app across seeds."""
    sweep = sweep or SweepRunner()
    nondet_runs = sweep.map(
        counter.run_nondet, range(nondet_seeds), name="fig1-nondet"
    )
    det_runs = sweep.map(counter.run_det, range(det_seeds), name="fig1-det")
    nondet = Counter(run.printed_value for run in nondet_runs)
    det = Counter(run.printed_value for run in det_runs)
    return Figure1Result(nondet, det)


# ---------------------------------------------------------------------------
# FIG3 — the tagged message sequence through the transactors.
# ---------------------------------------------------------------------------


@dataclass
class Figure3Result:
    """Observed tags along one DEAR method call (Figure 3's sequence)."""

    tc_ns: int
    deadline_c_ns: int
    deadline_s_ns: int
    release_ns: int  # L + E
    server_tag_ns: int
    reply_tag_ns: int

    def expected_server_tag_ns(self) -> int:
        """``tc + Dc + L + E`` (steps 1-11)."""
        return self.tc_ns + self.deadline_c_ns + self.release_ns

    def expected_reply_tag_ns(self) -> int:
        """``ts + Ds + L + E`` with ``ts`` = server tag (steps 12-22)."""
        return self.server_tag_ns + self.deadline_s_ns + self.release_ns

    def matches_paper_chain(self) -> bool:
        """Whether both hops obey the safe-to-process arithmetic."""
        return (
            self.server_tag_ns == self.expected_server_tag_ns()
            and self.reply_tag_ns == self.expected_reply_tag_ns()
        )

    def render(self) -> str:
        rows = [
            ["(1)  client request event", "tc", f"{self.tc_ns / 1e6:.3f} ms"],
            ["(2-6)  message tag", "tc + Dc",
             f"{(self.tc_ns + self.deadline_c_ns) / 1e6:.3f} ms"],
            ["(7-11) server logic tag", "tc + Dc + L + E",
             f"{self.server_tag_ns / 1e6:.3f} ms"],
            ["(12-17) response tag", "ts + Ds",
             f"{(self.server_tag_ns + self.deadline_s_ns) / 1e6:.3f} ms"],
            ["(18-22) client result tag", "ts + Ds + L + E",
             f"{self.reply_tag_ns / 1e6:.3f} ms"],
        ]
        return render_table(
            ["Figure 3 step", "formula", "observed tag"],
            rows,
            title="Figure 3 - tagged method call through DEAR transactors:",
        )


def figure3_sequence(seed: int = 0) -> Figure3Result:
    """Run one DEAR method call and extract the tag chain of Figure 3."""
    from repro.ara import AraProcess, Method, ServiceInterface, build_world
    from repro.dear import (
        ClientMethodTransactor,
        MethodCall,
        MethodReturn,
        ServerMethodTransactor,
        StpConfig,
        TransactorConfig,
    )
    from repro.reactors import Environment, Reactor
    from repro.someip.serialization import INT32
    from repro.time.duration import SEC

    interface = ServiceInterface(
        "Seq", 0x3000,
        methods=[Method("step", 1, arguments=[("x", INT32)],
                        returns=[("x", INT32)])],
    )
    deadline_c, deadline_s, latency_bound = 4 * MS, 6 * MS, 10 * MS
    stp = StpConfig(latency_bound_ns=latency_bound, clock_error_ns=0)
    client_config = TransactorConfig(deadline_ns=deadline_c, stp=stp)
    server_config = TransactorConfig(deadline_ns=deadline_s, stp=stp)

    world = build_world(
        seed, [("server-ecu", MINNOWBOARD), ("client-ecu", MINNOWBOARD)]
    )

    observed: dict[str, int] = {}

    server_process = AraProcess(world.platform("server-ecu"), "srv", tag_aware=True)
    server_env = Environment(name="srv", timeout=5 * SEC)
    skeleton = server_process.create_skeleton(interface, 1)
    smt = ServerMethodTransactor(
        "smt", server_env, server_process, skeleton, "step", server_config
    )

    class ServerLogic(Reactor):
        def __init__(self, name, owner):
            super().__init__(name, owner)
            self.inp = self.input("inp")
            self.out = self.output("out")

            def serve(ctx):
                call: MethodCall = ctx.get(self.inp)
                observed["server_tag"] = (
                    ctx.tag.time - self.environment.scheduler.start_time
                )
                ctx.set(self.out, MethodReturn(call.call_id, call.arguments))

            self.reaction("serve", triggers=[self.inp], effects=[self.out],
                          body=serve)

    logic = ServerLogic("logic", server_env)
    server_env.connect(smt.request_out, logic.inp)
    server_env.connect(logic.out, smt.response_in)
    skeleton.offer()
    server_env.start(world.platform("server-ecu"))

    client_process = AraProcess(world.platform("client-ecu"), "cli", tag_aware=True)
    client_env = Environment(name="cli", timeout=5 * SEC)

    class ClientLogic(Reactor):
        def __init__(self, name, owner):
            super().__init__(name, owner)
            self.req = self.output("req")
            self.res = self.input("res")
            kick = self.timer("kick", offset=10 * MS)

            def send(ctx):
                observed["tc"] = (
                    ctx.tag.time - self.environment.scheduler.start_time
                )
                observed["client_start"] = self.environment.scheduler.start_time
                ctx.set(self.req, 7)

            def receive(ctx):
                observed["reply_tag"] = (
                    ctx.tag.time - self.environment.scheduler.start_time
                )
                ctx.request_stop()

            self.reaction("send", triggers=[kick], effects=[self.req], body=send)
            self.reaction("recv", triggers=[self.res], body=receive)

    client_logic = ClientLogic("logic", client_env)

    def setup():
        proxy = yield from client_process.find_service(interface, 1)
        cmt = ClientMethodTransactor(
            "cmt", client_env, client_process, proxy, "step", client_config
        )
        client_env.connect(client_logic.req, cmt.request)
        client_env.connect(cmt.response, client_logic.res)
        client_env.start(world.platform("client-ecu"))

    client_process.spawn("setup", setup())
    world.run_for(10 * SEC)

    # Tags are absolute local times; both platforms have perfect clocks,
    # so expressing everything relative to the *client's* start keeps the
    # arithmetic in one frame of reference.
    client_start = observed["client_start"]
    tc_abs = observed["tc"] + client_start
    server_env_start = server_env.scheduler.start_time
    server_tag_abs = observed["server_tag"] + server_env_start
    reply_tag_abs = observed["reply_tag"] + client_start
    return Figure3Result(
        tc_ns=tc_abs,
        deadline_c_ns=deadline_c,
        deadline_s_ns=deadline_s,
        release_ns=stp.release_delay_ns,
        server_tag_ns=server_tag_abs,
        reply_tag_ns=reply_tag_abs,
    )


# ---------------------------------------------------------------------------
# FIG5 — error prevalence of the stock brake assistant.
# ---------------------------------------------------------------------------


@dataclass
class Figure5Result:
    """Per-run error breakdowns, sorted by total prevalence."""

    runs: list[BrakeRunResult]
    n_frames: int

    def sorted_runs(self) -> list[BrakeRunResult]:
        """Runs ordered by error rate (the paper sorts for visibility)."""
        return sorted(self.runs, key=lambda run: run.prevalence)

    def rates(self) -> list[float]:
        """Sorted total error rates."""
        return [run.prevalence for run in self.sorted_runs()]

    def mean_rate(self) -> float:
        """Mean error prevalence across runs."""
        return sum(run.prevalence for run in self.runs) / len(self.runs)

    def dominant_types(self) -> Counter:
        """How often each error type dominates an error-bearing run."""
        dominant = Counter()
        for run in self.runs:
            if run.errors.total() == 0:
                continue
            by_type = run.errors.as_dict()
            dominant[max(by_type, key=by_type.get)] += 1
        return dominant

    def render(self) -> str:
        """Figure 5 as a sorted stacked bar chart."""
        rows = []
        for index, run in enumerate(self.sorted_runs()):
            values = {
                name: 100.0 * count / self.n_frames
                for name, count in run.errors.as_dict().items()
            }
            rows.append((f"run {index:02d}", values))
        chart = ascii_bar_chart(
            rows,
            categories=list(ERROR_TYPES),
            title=(
                "Figure 5 - error prevalence, stock brake assistant "
                f"({len(self.runs)} runs x {self.n_frames} frames):"
            ),
        )
        footer = (
            f"\n  min {min(self.rates()) * 100:.3f}%   "
            f"mean {self.mean_rate() * 100:.2f}%   "
            f"max {max(self.rates()) * 100:.2f}%"
            "\n  (paper: min 0.018%, mean 5.60%, max 22.25%)"
        )
        return chart + footer


def figure5(
    n_runs: int = 20,
    n_frames: int = 2_000,
    sweep: SweepRunner | None = None,
    spec: ScenarioSpec | None = None,
) -> Figure5Result:
    """Reproduce Figure 5: 20 stock runs, counting the four error types.

    With *spec*, the spec's seeds, scenario, network and fault plan
    define the sweep (``n_runs``/``n_frames`` are ignored) and the runs
    go through :meth:`SweepRunner.run_spec`.
    """
    sweep = sweep or SweepRunner()
    if spec is not None:
        spec = replace(spec, variant="nondet")
        runs = sweep.run_spec(spec).values()
        return Figure5Result(runs, spec.effective_scenario().n_frames)
    scenario = BrakeScenario(n_frames=n_frames)
    runs = sweep.map(
        partial(run_nondet_brake_assistant, scenario=scenario),
        range(n_runs),
        name="fig5",
        params=asdict(scenario),
    )
    return Figure5Result(runs, n_frames)


# ---------------------------------------------------------------------------
# DET — the deterministic brake assistant case study.
# ---------------------------------------------------------------------------


@dataclass
class DetCaseStudyResult:
    """Measurements backing Section IV.B's claims."""

    runs: list[BrakeRunResult]
    commands_identical: bool
    traces_identical: bool
    oracle_perfect: bool
    latency: Summary

    def total_errors(self) -> int:
        """Errors across every run (must be 0)."""
        return sum(run.errors.total() for run in self.runs)

    def total_violations(self) -> int:
        """Deadline misses + STP violations across runs (must be 0)."""
        return sum(run.deadline_misses + run.stp_violations for run in self.runs)

    def render(self) -> str:
        rows = [
            ["total errors (all seeds)", str(self.total_errors())],
            ["deadline misses + STP violations", str(self.total_violations())],
            ["brake commands identical across seeds", str(self.commands_identical)],
            ["logical traces identical (det. camera)", str(self.traces_identical)],
            ["output matches ideal-pipeline oracle", str(self.oracle_perfect)],
            ["end-to-end latency mean", f"{self.latency.mean / 1e6:.2f} ms"],
            ["end-to-end latency max", f"{self.latency.maximum / 1e6:.2f} ms"],
        ]
        return render_table(
            ["property", "value"], rows,
            title="Section IV.B - deterministic brake assistant (DEAR):",
        )


def det_case_study(
    n_seeds: int = 5,
    n_frames: int = 500,
    sweep: SweepRunner | None = None,
    spec: ScenarioSpec | None = None,
) -> DetCaseStudyResult:
    """Reproduce Section IV.B: zero errors, determinism, bounded latency.

    With *spec*, the spec's seeds, scenario, network and fault plan
    define the sweep (``n_seeds``/``n_frames`` are ignored).
    """
    sweep = sweep or SweepRunner()
    if spec is not None:
        spec = replace(spec, variant="det")
        scenario = spec.effective_scenario()
        n_frames = scenario.n_frames
        runs = sweep.run_spec(spec).values()
    else:
        scenario = BrakeScenario(n_frames=n_frames)
        runs = sweep.map(
            partial(run_det_brake_assistant, scenario=scenario),
            range(n_seeds),
            name="det",
            params=asdict(scenario),
        )
    command_sets = {tuple(sorted(run.commands.items())) for run in runs}
    det_scenario = replace(
        scenario, n_frames=min(n_frames, 200), deterministic_camera=True
    )
    trace_runs = sweep.map(
        partial(run_det_brake_assistant, scenario=det_scenario),
        range(3),
        name="det-trace",
        params=asdict(det_scenario),
    )
    fingerprints = {
        tuple(sorted(run.trace_fingerprints.items())) for run in trace_runs
    }
    generator = SceneGenerator(scenario.period_ns, scenario.variant)
    oracle = oracle_commands(generator, n_frames)
    latencies = [
        latency for run in runs for latency in run.latencies_ns.values()
    ]
    return DetCaseStudyResult(
        runs=runs,
        commands_identical=len(command_sets) == 1,
        traces_identical=len(fingerprints) == 1,
        oracle_perfect=all(
            run.compare_with_oracle(oracle).is_perfect for run in runs
        ),
        latency=summarize(latencies),
    )


# ---------------------------------------------------------------------------
# TRADEOFF — deadlines vs. observable errors vs. latency.
# ---------------------------------------------------------------------------


@dataclass
class TradeoffPoint:
    """One deadline setting of the sweep."""

    deadline_ns: int
    deadline_misses: int
    frames_lost: int
    latency_mean_ns: float
    latency_max_ns: float


@dataclass
class TradeoffResult:
    """The deadline sweep of Section IV.B's discussion."""

    points: list[TradeoffPoint]
    n_frames: int

    def render(self) -> str:
        rows = [
            [
                f"{point.deadline_ns / 1e6:.0f} ms",
                str(point.deadline_misses),
                str(point.frames_lost),
                f"{point.latency_mean_ns / 1e6:.1f} ms",
                f"{point.latency_max_ns / 1e6:.1f} ms",
            ]
            for point in self.points
        ]
        return render_table(
            ["stage deadline", "deadline misses", "frames lost",
             "e2e latency mean", "e2e latency max"],
            rows,
            title=(
                "Deadline vs. error-rate/latency trade-off "
                "(Preprocessing & Computer Vision deadline swept):"
            ),
        )


def _tradeoff_point(
    deadline_ns: int,
    n_frames: int,
    seed: int,
    base: BrakeScenario | None = None,
) -> TradeoffPoint:
    """One deadline setting of the trade-off sweep (runs in a worker)."""
    scenario = replace(
        base or BrakeScenario(),
        n_frames=n_frames,
        preprocessing_deadline_ns=deadline_ns,
        computer_vision_deadline_ns=deadline_ns,
    )
    run = run_det_brake_assistant(seed, scenario)
    latencies = list(run.latencies_ns.values())
    return TradeoffPoint(
        deadline_ns=deadline_ns,
        deadline_misses=run.deadline_misses,
        frames_lost=n_frames - len(run.commands),
        latency_mean_ns=(sum(latencies) / len(latencies)) if latencies else 0,
        latency_max_ns=max(latencies) if latencies else 0,
    )


def tradeoff(
    deadlines_ns: list[int] | None = None,
    n_frames: int = 300,
    seed: int = 0,
    sweep: SweepRunner | None = None,
    spec: ScenarioSpec | None = None,
) -> TradeoffResult:
    """Sweep the heavy stages' deadlines below and above their WCET.

    With *spec*, its scenario is the base every deadline point is
    derived from and its first seed drives the runs.
    """
    if deadlines_ns is None:
        deadlines_ns = [10 * MS, 15 * MS, 18 * MS, 22 * MS, 25 * MS, 35 * MS]
    sweep = sweep or SweepRunner()
    base = None
    if spec is not None:
        base = spec.effective_scenario()
        n_frames = base.n_frames
        seed = spec.seeds[0]
    points = sweep.map(
        partial(_tradeoff_point, n_frames=n_frames, seed=seed, base=base),
        deadlines_ns,
        name="tradeoff",
        params={
            "n_frames": n_frames,
            "seed": seed,
            "base": asdict(base) if base else None,
        },
    )
    return TradeoffResult(points, n_frames)


# ---------------------------------------------------------------------------
# ABLATE-SRC — the three sources of nondeterminism.
# ---------------------------------------------------------------------------


@dataclass
class AblationResult:
    """Outcome histograms of the counter app per source configuration."""

    rows: list[tuple[str, Counter]]

    def render(self) -> str:
        table_rows = []
        for label, counts in self.rows:
            outcomes = ", ".join(
                f"{value}:{count}" for value, count in sorted(counts.items())
            )
            deterministic = "yes" if len(counts) == 1 else "NO"
            table_rows.append([label, outcomes, deterministic])
        return render_table(
            ["configuration", "printed values (value:count)", "deterministic"],
            table_rows,
            title="Section II.B - sources of nondeterminism (counter app):",
        )


def ablation_sources(
    n_seeds: int = 25, sweep: SweepRunner | None = None
) -> AblationResult:
    """Toggle each source of nondeterminism individually."""
    sweep = sweep or SweepRunner()
    single = MethodCallProcessingMode.EVENT_SINGLE_THREAD
    configurations = [
        ("source 1 on: thread-per-invocation", dict()),
        ("sources off: serialized + FIFO", dict(processing_mode=single)),
        (
            "source 3 on: unordered transport",
            dict(processing_mode=single, in_order=False),
        ),
        (
            "source 2 on: second client",
            dict(processing_mode=single, two_clients=True),
        ),
    ]
    rows = []
    for label, kwargs in configurations:
        runs = sweep.map(
            partial(counter.run_variant, **kwargs),
            range(n_seeds),
            name="ablation",
            params={"config": label},
        )
        rows.append((label, Counter(run.printed_value for run in runs)))
    return AblationResult(rows)


# ---------------------------------------------------------------------------
# OVERHEAD — the price of determinism.
# ---------------------------------------------------------------------------


@dataclass
class OverheadResult:
    """Latency and processing comparison between the variants."""

    stock_latency: Summary
    dear_latency: Summary
    stock_frames_out: int
    dear_frames_out: int
    n_frames: int

    def render(self) -> str:
        rows = [
            [
                "stock AP",
                f"{self.stock_latency.mean / 1e6:.1f}",
                f"{self.stock_latency.maximum / 1e6:.1f}",
                f"{self.stock_frames_out}/{self.n_frames}",
            ],
            [
                "DEAR",
                f"{self.dear_latency.mean / 1e6:.1f}",
                f"{self.dear_latency.maximum / 1e6:.1f}",
                f"{self.dear_frames_out}/{self.n_frames}",
            ],
        ]
        return render_table(
            ["variant", "e2e latency mean [ms]", "e2e latency max [ms]",
             "frames answered"],
            rows,
            title="Cost of determinism - latency vs. completeness:",
        )


def _overhead_variant(variant: str, n_frames: int, seed: int) -> BrakeRunResult:
    """One variant of the overhead comparison (runs in a worker)."""
    scenario = BrakeScenario(n_frames=n_frames)
    runner = (
        run_nondet_brake_assistant if variant == "stock"
        else run_det_brake_assistant
    )
    return runner(seed, scenario)


def overhead(
    n_frames: int = 400,
    seed: int = 0,
    sweep: SweepRunner | None = None,
    spec: ScenarioSpec | None = None,
) -> OverheadResult:
    """Compare end-to-end latency and completeness of the two variants.

    With *spec*, both variants run the spec's scenario/network/faults
    on its first seed through :func:`run_scenario_spec`.
    """
    sweep = sweep or SweepRunner()
    if spec is not None:
        seed = spec.seeds[0]
        n_frames = spec.effective_scenario().n_frames
        stock, dear = sweep.map(
            partial(run_scenario_spec, spec=replace(spec, variant="nondet")),
            [seed],
            name="overhead-stock",
            params={"spec": spec.to_dict()},
        ) + sweep.map(
            partial(run_scenario_spec, spec=replace(spec, variant="det")),
            [seed],
            name="overhead-dear",
            params={"spec": spec.to_dict()},
        )
    else:
        stock, dear = sweep.map(
            partial(_overhead_variant, n_frames=n_frames, seed=seed),
            ["stock", "dear"],
            name="overhead",
            params={"n_frames": n_frames, "seed": seed},
        )
    return OverheadResult(
        stock_latency=summarize(list(stock.latencies_ns.values())),
        dear_latency=summarize(list(dear.latencies_ns.values())),
        stock_frames_out=len(stock.commands),
        dear_frames_out=len(dear.commands),
        n_frames=n_frames,
    )


# ---------------------------------------------------------------------------
# LET — the logical-execution-time baseline.
# ---------------------------------------------------------------------------


@dataclass
class LetBaselineResult:
    """LET pipeline measurements vs. the DEAR chain."""

    deterministic: bool
    let_latency: Summary
    dear_latency: Summary
    frames_out: int
    n_frames: int

    def render(self) -> str:
        rows = [
            [
                "LET (4 x 50 ms tasks)",
                "yes" if self.deterministic else "NO",
                f"{self.let_latency.mean / 1e6:.1f}",
            ],
            [
                "DEAR (reactors)",
                "yes",
                f"{self.dear_latency.mean / 1e6:.1f}",
            ],
        ]
        return render_table(
            ["baseline", "deterministic", "e2e latency mean [ms]"],
            rows,
            title="Related work - LET vs. reactors on the brake pipeline:",
        )


def _let_run(seed: int, n_frames: int):
    """One LET-pipeline run (runs in a worker); returns (commands, latencies)."""
    period = 50 * MS
    generator = SceneGenerator(period)
    world = World(seed)
    platform = world.add_platform("ecu", MINNOWBOARD)
    executor = LetExecutor(platform)
    camera_ch = LetChannel("camera")
    frame_ch = LetChannel("frame")
    fwd_frame_ch = LetChannel("fwd_frame")
    lane_ch = LetChannel("lane")
    vehicles_ch = LetChannel("vehicles")
    brake_ch = LetChannel("brake", keep_history=True)
    # Deterministic camera: publish frame k exactly at its capture time.
    for seq in range(n_frames):
        world.sim.post_at(
            (seq + 1) * period,
            lambda seq=seq: camera_ch.publish(world.sim.now, generator.frame(seq)),
        )
    executor.add_task(LetTask(
        "adapter", period,
        body=lambda inputs: {"out": inputs["cam"]},
        reads={"cam": camera_ch}, writes={"out": frame_ch}, wcet_ns=3 * MS,
    ))

    def pre_body(inputs):
        frame = inputs["frame"]
        if frame is None:
            return {}
        return {"frame": frame, "lane": preprocess(frame)}

    executor.add_task(LetTask(
        "preprocessing", period, pre_body,
        reads={"frame": frame_ch},
        writes={"frame": fwd_frame_ch, "lane": lane_ch}, wcet_ns=21 * MS,
    ))

    def cv_body(inputs):
        frame, lane = inputs["frame"], inputs["lane"]
        if frame is None or lane is None:
            return {}
        return {"out": detect_vehicles(frame, lane)}

    executor.add_task(LetTask(
        "cv", period, cv_body,
        reads={"frame": fwd_frame_ch, "lane": lane_ch},
        writes={"out": vehicles_ch}, wcet_ns=21 * MS,
    ))

    def eba_body(inputs):
        vehicles = inputs["vehicles"]
        if vehicles is None:
            return {}
        return {"out": decide_brake(vehicles)}

    executor.add_task(LetTask(
        "eba", period, eba_body,
        reads={"vehicles": vehicles_ch}, writes={"out": brake_ch},
        wcet_ns=3 * MS,
    ))
    executor.start((n_frames + 8) * period)
    world.run_to_completion(check_deadlock=False)
    commands = {}
    latencies = []
    for publish_time, command in brake_ch.history:
        if command.frame_seq not in commands:
            commands[command.frame_seq] = command
            capture = (command.frame_seq + 1) * period
            latencies.append(publish_time - capture)
    return commands, latencies


def let_baseline(
    n_frames: int = 300, n_seeds: int = 3, sweep: SweepRunner | None = None
) -> LetBaselineResult:
    """The brake pipeline as LET tasks, compared against DEAR."""
    sweep = sweep or SweepRunner()
    outcomes = sweep.map(
        partial(_let_run, n_frames=n_frames),
        range(n_seeds),
        name="let",
        params={"n_frames": n_frames},
    )
    command_sets = {tuple(sorted(commands.items())) for commands, _ in outcomes}
    latencies = outcomes[0][1]
    dear = run_det_brake_assistant(0, BrakeScenario(n_frames=min(n_frames, 300)))
    return LetBaselineResult(
        deterministic=len(command_sets) == 1,
        let_latency=summarize(latencies),
        dear_latency=summarize(list(dear.latencies_ns.values())),
        frames_out=len(outcomes[0][0]),
        n_frames=n_frames,
    )
