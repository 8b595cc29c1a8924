"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro fig5 --runs 20 --frames 2000
    python -m repro det --seeds 5 --frames 500
    python -m repro fig5 --workers 8          # parallel sweep
    python -m repro fig5 --force              # ignore cached results
    python -m repro all
    python -m repro explore --strategy pct --shrink --record trace.json
    python -m repro explore --replay trace.json
    python -m repro trace det --trace-out trace.json      # Perfetto timeline
    python -m repro metrics det --seeds 20 --metrics-out metrics.json
    python -m repro faults --drop 0.05 --partition 800:1200 --seeds 10
    python -m repro faults --plan plan.json --out report.json
    python -m repro det --spec spec.json      # any subcommand from a spec
    python -m repro serve --port 8765 --local-workers 2   # sweep service
    python -m repro submit --spec spec.json --wait        # run a campaign
    python -m repro worker --coordinator http://host:8765 # join the fleet

Every subcommand runs the corresponding experiment driver and prints
the text rendering of the paper figure/table it reproduces.  Sweeps run
in parallel on a process pool (``--workers``, ``REPRO_WORKERS``,
default: all cores) and cache per-seed results under ``.repro_cache/``
so repeated invocations only pay for what changed; a throughput summary
(seeds/s, cache hits) is printed to stderr after each run.
"""

from __future__ import annotations

import argparse
import sys
import time


def _add_int(parser: argparse.ArgumentParser, name: str, default: int, help_text: str):
    parser.add_argument(name, type=int, default=default, help=help_text)


def _add_app(parser: argparse.ArgumentParser) -> None:
    """``--app`` selector: any registered application, brake by default."""
    from repro import apps

    parser.add_argument(
        "--app", choices=apps.names(), default="brake",
        help="application to run (default: brake; see `repro library` "
             "for the multi-ECU scenario library)",
    )


def _app_scenario(app: str, frames: int | None, brake_default: int):
    """The app's default scenario with ``--frames`` applied.

    Brake keeps its historical per-subcommand frame default; library
    scenarios run at their own size unless ``--frames`` is given.
    """
    from dataclasses import replace

    from repro import apps

    scenario = apps.get(app).default_scenario()
    if app == "brake":
        return replace(
            scenario, n_frames=frames if frames is not None else brake_default
        )
    if frames is not None:
        scenario = replace(scenario, n_frames=frames)
    return scenario


def _sweep_options() -> argparse.ArgumentParser:
    """Options shared by every subcommand: parallelism and caching."""
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("sweep execution")
    group.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool size for seed sweeps "
             "(default: REPRO_WORKERS or all cores; 1 = sequential)",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk result cache",
    )
    group.add_argument(
        "--force", action="store_true",
        help="recompute every seed, overwriting cached results",
    )
    group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache location (default: REPRO_CACHE_DIR or .repro_cache)",
    )
    group.add_argument(
        "--spec", default=None, metavar="FILE",
        help="load a scenario-spec/v1 JSON file (seeds, scenario, network, "
             "STP bounds, fault plan) and run the experiment from it",
    )
    obs_group = common.add_argument_group("observability")
    obs_group.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="also run one observed representative brake run and write "
             "its Perfetto/Chrome trace_event JSON to FILE",
    )
    obs_group.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the observed run's (or the metrics sweep's) "
             "metrics JSON to FILE",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Achieving Determinism in Adaptive AUTOSAR' "
            "(DATE 2020): run any experiment and print its figure."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    common = _sweep_options()

    fig1 = commands.add_parser(
        "fig1", help="Figure 1: client/server histogram", parents=[common]
    )
    _add_int(fig1, "--seeds", 200, "number of stock-AP runs")

    commands.add_parser(
        "fig3", help="Figure 3: tagged message sequence", parents=[common]
    )

    fig5 = commands.add_parser(
        "fig5", help="Figure 5: error prevalence", parents=[common]
    )
    _add_int(fig5, "--runs", 20, "number of experiment instances")
    _add_int(fig5, "--frames", 2_000, "frames per run (paper: 100000)")

    det = commands.add_parser(
        "det", help="Section IV.B: deterministic variant", parents=[common]
    )
    _add_int(det, "--seeds", 5, "number of seeds")
    _add_int(det, "--frames", 500, "frames per run")

    tradeoff = commands.add_parser(
        "tradeoff", help="deadline vs. error/latency", parents=[common]
    )
    _add_int(tradeoff, "--frames", 300, "frames per point")

    ablation = commands.add_parser(
        "ablation", help="the three sources (II.B)", parents=[common]
    )
    _add_int(ablation, "--seeds", 25, "seeds per configuration")

    overhead = commands.add_parser(
        "overhead", help="cost of determinism", parents=[common]
    )
    _add_int(overhead, "--frames", 400, "frames per variant")

    let = commands.add_parser(
        "let", help="LET baseline comparison", parents=[common]
    )
    _add_int(let, "--frames", 300, "frames")

    commands.add_parser(
        "skew", help="EXT: clock-sync error sweep", parents=[common]
    )
    commands.add_parser(
        "scaling", help="EXT: pipeline-depth latency", parents=[common]
    )
    commands.add_parser(
        "native", help="EXT: native tag transport", parents=[common]
    )

    distributed = commands.add_parser(
        "distributed",
        help="EXT: brake assistant across two processing ECUs",
        parents=[common],
    )
    _add_int(distributed, "--frames", 200, "frames per configuration")

    explore = commands.add_parser(
        "explore",
        help="search scheduler interleavings for a failure "
             "(record/replay, shrink, verify determinism)",
        parents=[common],
    )
    _add_app(explore)
    explore.add_argument(
        "--strategy", choices=("random", "pct"), default="pct",
        help="random = uniform seed sweeping; pct = bounded preemption "
             "injection (default)",
    )
    _add_int(explore, "--budget", 40, "maximum executions to explore")
    _add_int(explore, "--frames", 50, "frames per execution")
    _add_int(explore, "--seed", 0, "base root seed")
    _add_int(explore, "--depth", 6, "PCT: preemption points per execution")
    explore.add_argument(
        "--max-preempt-ms", type=float, default=25.0, metavar="MS",
        help="PCT: delay injected at each preemption point (default: 25)",
    )
    explore.add_argument(
        "--shrink", action="store_true",
        help="delta-debug the failing schedule to a minimal preemption set",
    )
    explore.add_argument(
        "--record", metavar="FILE", default=None,
        help="write the failing run's full decision trace as JSON",
    )
    explore.add_argument(
        "--replay", metavar="FILE", default=None,
        help="replay a recorded decision trace instead of exploring; "
             "exit 0 iff the recorded error counters reproduce",
    )
    explore.add_argument(
        "--schedule-out", metavar="FILE", default=None,
        help="write the (shrunk) failing schedule as a JSON artifact",
    )
    _add_int(
        explore, "--verify", 0,
        "also verify DEAR determinism across N in-budget schedules",
    )
    explore.add_argument(
        "--snapshot", action=argparse.BooleanOptionalAction, default=True,
        help="fork executions from copy-on-write snapshots of shared "
             "schedule prefixes instead of replaying from t=0 "
             "(default: on; falls back to plain runs where os.fork is "
             "unavailable)",
    )

    faults = commands.add_parser(
        "faults",
        help="deterministic fault-injection sweep: run the DEAR and stock "
             "variants under a seeded fault plan and check that in-bound "
             "faults keep DEAR's logical traces bit-identical",
        parents=[common],
    )
    _add_app(faults)
    faults.add_argument(
        "--plan", metavar="FILE", default=None,
        help="load a fault-plan/v1 JSON file (otherwise built from the "
             "quick flags below; library apps with no quick flags fall "
             "back to their scenario's own fault plan)",
    )
    faults.add_argument(
        "--drop", type=float, default=None, metavar="P",
        help="camera-flow frame drop probability "
             "(default: 0.05 for brake, 0 for library apps)",
    )
    faults.add_argument(
        "--duplicate", type=float, default=0.0, metavar="P",
        help="camera-flow duplication probability",
    )
    faults.add_argument(
        "--reorder", type=float, default=0.0, metavar="P",
        help="camera-flow reordering probability",
    )
    faults.add_argument(
        "--corrupt", type=float, default=0.0, metavar="P",
        help="camera-flow corruption (FCS drop) probability",
    )
    faults.add_argument(
        "--spike", type=float, default=0.0, metavar="P",
        help="camera-flow latency-spike probability",
    )
    faults.add_argument(
        "--spike-ms", type=float, default=2.0, metavar="MS",
        help="latency-spike magnitude in ms (default: 2)",
    )
    faults.add_argument(
        "--partition", action="append", metavar="START_MS:END_MS",
        default=None,
        help="sever all inter-host links over [START, END) ms; "
             "repeatable; deferred frames arrive after the heal",
    )
    _add_int(faults, "--fault-seed", 1, "fault-plan PRF seed")
    _add_int(faults, "--seeds", 5, "world seeds to sweep per variant")
    faults.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="frames per run (default: 150 for brake, the scenario's "
             "own size for library apps)",
    )
    faults.add_argument(
        "--late-policy",
        choices=("process", "drop", "last-known", "fault-signal"),
        default="process",
        help="DEAR policy for L-bound-violating messages (default: process)",
    )
    faults.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the full fault-sweep report JSON to FILE",
    )
    faults.add_argument(
        "--counterexample-out", metavar="FILE", default="fault-counterexample.json",
        help="where to write the divergence artifact if DEAR silently "
             "diverges (default: fault-counterexample.json)",
    )
    faults.add_argument(
        "--snapshot", action=argparse.BooleanOptionalAction, default=True,
        help="triage seed 0's fired faults down to the decisive subset "
             "by ddmin over copy-on-write snapshot forks (default: on "
             "where os.fork is available)",
    )

    flows = commands.add_parser(
        "flows",
        help="causal flow tracing: sweep any app's variants with per-frame "
             "hop records, print per-hop latency, drop attribution and the "
             "critical path, and diff stock vs DEAR",
        parents=[common],
    )
    _add_app(flows)
    _add_int(flows, "--seeds", 10, "world seeds to sweep per variant")
    flows.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="frames per run (default: 120 for brake, the scenario's "
             "own size for library apps)",
    )
    flows.add_argument(
        "--variant", choices=("det", "nondet", "both"), default="both",
        help="which variant(s) to flow-trace (default: both)",
    )
    flows.add_argument(
        "--drop", type=float, default=0.0, metavar="P",
        help="camera-flow fault-plan drop probability "
             "(default: 0, no plan; brake only)",
    )
    _add_int(flows, "--fault-seed", 1, "fault-plan PRF seed")
    flows.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the flow-sweep-report/v1 JSON to FILE",
    )

    bench_diff = commands.add_parser(
        "bench-diff",
        help="perf trajectory: compare fresh BENCH_*.json benchmark output "
             "against committed baselines with a configurable tolerance",
    )
    bench_diff.add_argument(
        "--baseline-dir", default="benchmarks/baselines", metavar="DIR",
        help="committed baseline BENCH_*.json directory "
             "(default: benchmarks/baselines)",
    )
    bench_diff.add_argument(
        "--current-dir", default="bench-artifacts", metavar="DIR",
        help="freshly generated BENCH_*.json directory (REPRO_BENCH_DIR; "
             "default: bench-artifacts)",
    )
    bench_diff.add_argument(
        "--tolerance", type=float, default=0.75, metavar="REL",
        help="relative tolerance for timing fields (default: 0.75 — CI "
             "runners are noisy; tighten locally)",
    )
    bench_diff.add_argument(
        "--strict", action="store_true",
        help="exit 1 on regressions beyond tolerance (default: warn only)",
    )
    bench_diff.add_argument(
        "--gate-fields", action="store_true",
        help="curated strict subset: structural mismatches, throughput "
             "(*_per_s) regressions and missing/new benchmarks fail; "
             "plain wall-time noise only warns (combine with --strict)",
    )
    bench_diff.add_argument(
        "--only", metavar="PATTERN", default=None,
        help="restrict the diff to benchmark names matching this fnmatch "
             "pattern (for partial runs that regenerate one suite)",
    )
    bench_diff.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the bench-diff/v1 JSON report to FILE",
    )

    serve = commands.add_parser(
        "serve",
        help="run the sweep-service coordinator: accept scenario-spec "
             "campaigns over HTTP (sweep-service/v1), shard them into "
             "seed-chunk jobs and queue them for the worker fleet",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    _add_int(serve, "--port", 8765, "bind port (0 = ephemeral)")
    serve.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="shared content-addressed result store, the same one local "
             "sweeps use (default: REPRO_CACHE_DIR or .repro_cache)",
    )
    _add_int(
        serve, "--local-workers", 0,
        "also spawn N in-process workers over loopback HTTP (one-host mode)",
    )
    _add_int(serve, "--chunk-size", 4, "seeds per job")
    _add_int(
        serve, "--max-attempts", 3,
        "lease-or-fail attempts before a job fails terminally",
    )
    serve.add_argument(
        "--lease-ttl", type=float, default=15.0, metavar="S",
        help="lease seconds a job survives without a heartbeat "
             "(worker-death requeue horizon; default: 15)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=600.0, metavar="S",
        help="hard wall-clock budget per job attempt (default: 600)",
    )
    serve.add_argument(
        "--retry-backoff", type=float, default=0.25, metavar="S",
        help="requeue delay after the first failure, doubling per "
             "attempt (default: 0.25)",
    )
    _add_int(
        serve, "--campaigns", 0,
        "exit once N campaigns have completed (0 = serve forever)",
    )

    submit = commands.add_parser(
        "submit",
        help="submit a scenario-spec campaign to a running coordinator "
             "and optionally wait for the merged result",
    )
    submit.add_argument(
        "--spec", required=True, metavar="FILE",
        help="scenario-spec/v1 JSON file describing the campaign",
    )
    submit.add_argument(
        "--coordinator", default="http://127.0.0.1:8765", metavar="URL",
        help="coordinator base URL (default: http://127.0.0.1:8765)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="poll until the campaign completes and print the summary",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="--wait timeout in seconds (default: 600)",
    )
    submit.add_argument(
        "--connect-timeout", type=float, default=30.0, metavar="S",
        help="seconds to wait for the coordinator to come up (default: 30)",
    )
    submit.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the merged sweep-service/v1 result document to FILE",
    )
    submit.add_argument(
        "--report-out", metavar="FILE", default=None,
        help="write the campaign post-mortem report JSON to FILE",
    )

    worker = commands.add_parser(
        "worker",
        help="run one sweep-service worker: lease jobs from a "
             "coordinator under a heartbeat and stream results back",
    )
    worker.add_argument(
        "--coordinator", default="http://127.0.0.1:8765", metavar="URL",
        help="coordinator base URL (default: http://127.0.0.1:8765)",
    )
    worker.add_argument(
        "--poll", type=float, default=0.2, metavar="S",
        help="idle poll interval in seconds (default: 0.2)",
    )
    worker.add_argument(
        "--idle-exit", type=float, default=None, metavar="S",
        help="exit after this long without work (default: run forever)",
    )
    _add_int(worker, "--max-jobs", 0, "exit after completing N jobs (0 = no limit)")
    worker.add_argument(
        "--connect-timeout", type=float, default=30.0, metavar="S",
        help="seconds to wait for the coordinator to come up (default: 30)",
    )

    status = commands.add_parser(
        "status",
        help="live campaign status from a running coordinator "
             "(per-job state, queue depth, seeds/s, ETA)",
    )
    status.add_argument(
        "campaign", nargs="?", default=None,
        help="campaign id (default: the most recently submitted)",
    )
    status.add_argument(
        "--coordinator", default="http://127.0.0.1:8765", metavar="URL",
        help="coordinator base URL (default: http://127.0.0.1:8765)",
    )
    status.add_argument(
        "--watch", action="store_true",
        help="refresh the table until the campaign completes",
    )
    status.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="--watch refresh interval in seconds (default: 1)",
    )

    report = commands.add_parser(
        "report",
        help="fetch a campaign's post-mortem report; --trace-out renders "
             "the job timelines as a Perfetto fleet trace",
    )
    report.add_argument(
        "campaign", nargs="?", default=None,
        help="campaign id (default: the most recently submitted)",
    )
    report.add_argument(
        "--coordinator", default="http://127.0.0.1:8765", metavar="URL",
        help="coordinator base URL (default: http://127.0.0.1:8765)",
    )
    report.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the sweep-service/v1 report JSON to FILE",
    )
    report.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write the fleet Perfetto trace (trace_event JSON) to FILE",
    )

    trace = commands.add_parser(
        "trace",
        help="run one observed app run and export a Perfetto trace",
        parents=[common],
    )
    _add_app(trace)
    trace.add_argument(
        "experiment", choices=("det", "nondet"),
        help="variant to observe",
    )
    _add_int(trace, "--seed", 0, "seed of the observed run")
    trace.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="frames for the observed run (default: 200 for brake, the "
             "scenario's own size for library apps)",
    )

    metrics = commands.add_parser(
        "metrics",
        help="sweep observed app runs and print cross-seed "
             "metric aggregates (p50/p95/max)",
        parents=[common],
    )
    _add_app(metrics)
    metrics.add_argument(
        "experiment", choices=("det", "nondet"),
        help="variant to observe",
    )
    _add_int(metrics, "--seeds", 10, "number of observed seeds")
    metrics.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="frames per run (default: 200 for brake, the scenario's "
             "own size for library apps)",
    )

    library = commands.add_parser(
        "library",
        help="list the registered applications and the multi-ECU "
             "scenario library (topology size, variants, default faults)",
    )
    library.add_argument(
        "--json", action="store_true",
        help="emit the listing as JSON instead of a table",
    )

    run_all = commands.add_parser(
        "all", help="run every experiment (default scale)", parents=[common]
    )
    run_all.add_argument(
        "--quick", action="store_true", help="reduced sizes for a fast pass"
    )
    return parser


def _make_sweep(args: argparse.Namespace):
    """A :class:`SweepRunner` configured from the common CLI options."""
    from repro.harness.sweep import SweepRunner

    return SweepRunner(
        workers=args.workers,
        use_cache=False if args.no_cache else None,
        force=args.force,
        cache_dir=args.cache_dir,
    )


def _load_spec(args: argparse.Namespace):
    """The :class:`ScenarioSpec` named by ``--spec``, or ``None``."""
    if not getattr(args, "spec", None):
        return None
    from repro.harness.config import ScenarioSpec

    return ScenarioSpec.load(args.spec)


def _run_one(name: str, args: argparse.Namespace, sweep) -> str:
    from repro.harness import extensions, figures

    spec = _load_spec(args)
    if name == "fig1":
        return figures.figure1(nondet_seeds=args.seeds, sweep=sweep).render()
    if name == "fig3":
        return figures.figure3_sequence().render()
    if name == "fig5":
        return figures.figure5(
            n_runs=args.runs, n_frames=args.frames, sweep=sweep, spec=spec
        ).render()
    if name == "det":
        return figures.det_case_study(
            n_seeds=args.seeds, n_frames=args.frames, sweep=sweep, spec=spec
        ).render()
    if name == "tradeoff":
        return figures.tradeoff(
            n_frames=args.frames, sweep=sweep, spec=spec
        ).render()
    if name == "ablation":
        return figures.ablation_sources(n_seeds=args.seeds, sweep=sweep).render()
    if name == "overhead":
        return figures.overhead(
            n_frames=args.frames, sweep=sweep, spec=spec
        ).render()
    if name == "let":
        return figures.let_baseline(n_frames=args.frames, sweep=sweep).render()
    if name == "skew":
        return extensions.clock_skew_sweep(sweep=sweep, spec=spec).render()
    if name == "scaling":
        return extensions.pipeline_scaling(sweep=sweep, spec=spec).render()
    if name == "native":
        return extensions.native_transport_comparison(sweep=sweep).render()
    if name == "distributed":
        return _render_distributed(args.frames, sweep)
    raise ValueError(f"unknown command {name!r}")


def _distributed_point(configuration, frames: int):
    """One (skew, assumed E) distributed run (runs in a worker)."""
    from repro.apps.brake import BrakeScenario, run_det_brake_assistant

    skew, error = configuration
    scenario = BrakeScenario(
        n_frames=frames, distributed=True,
        processing_clock_skew_ns=skew, clock_error_ns=error,
    )
    return run_det_brake_assistant(0, scenario)


def _render_distributed(frames: int, sweep) -> str:
    from functools import partial

    from repro.analysis.report import render_table
    from repro.time import MS

    configurations = [(0, 0), (15 * MS, 0), (20 * MS, 25 * MS)]
    runs = sweep.map(
        partial(_distributed_point, frames=frames),
        configurations,
        name="ext-dist",
        params={"frames": frames},
    )
    rows = []
    for (skew, error), run in zip(configurations, runs):
        rows.append([
            f"{skew / 1e6:.0f} ms", f"{error / 1e6:.0f} ms",
            str(run.stp_violations), f"{len(run.commands)}/{frames}",
        ])
    return render_table(
        ["clock skew", "assumed E", "STP violations", "frames answered"],
        rows,
        title="EXT-DIST - distributed brake assistant:",
    )


def _explore_scenario(app: str, frames: int, deterministic: bool = False):
    """The scenario explore/replay runs: hazard-prone and small.

    Brake uses its calibration scenario (tightened to provoke failures);
    library scenarios are hazard-prone by construction and just get the
    frame count applied.  *deterministic* selects the DEAR-friendly
    camera for brake; library det variants need no such knob.
    """
    from dataclasses import replace

    from repro import apps
    from repro.explore import calibration_scenario

    if app == "brake":
        return calibration_scenario(frames, deterministic_camera=deterministic)
    return replace(
        apps.get(app).default_scenario(),
        n_frames=frames,
        deterministic_inputs=deterministic,
    )


def _replay_trace(args: argparse.Namespace) -> int:
    """``repro explore --replay FILE``: re-execute a recorded trace."""
    from repro import apps
    from repro.explore import ScheduleReplayer
    from repro.explore.decisions import DecisionTrace
    from repro.sim.rng import stream_hooks

    trace = DecisionTrace.load(args.replay)
    app = trace.params.get("app", getattr(args, "app", "brake"))
    frames = trace.params.get("frames", args.frames)
    scenario = _explore_scenario(app, frames)
    replayer = ScheduleReplayer(trace)
    with stream_hooks(replayer):
        result = apps.get(app).runner("nondet")(trace.base_seed, scenario)
    errors = result.errors.as_dict()
    print(
        f"replay: {replayer.consumed}/{len(trace.records)} recorded "
        f"decisions consumed (seed {trace.base_seed}, {frames} frames)"
    )
    expected = trace.params.get("errors")
    if expected is not None and errors != expected:
        print(
            "replay: error counters DIVERGED\n"
            f"  expected: {expected}\n  got:      {errors}"
        )
        return 1
    nonzero = {name: count for name, count in errors.items() if count}
    print(f"replay: errors reproduced: {nonzero or 'none'}")
    return 0


def _run_explore(args: argparse.Namespace, sweep) -> int:
    """``repro explore``: search, then optionally shrink/record/verify."""
    from repro.explore import PctStrategy, RandomSweepStrategy
    from repro.time import MS

    if args.replay:
        return _replay_trace(args)

    if args.strategy == "pct":
        strategy = PctStrategy(
            depth=args.depth,
            preempt_ns=int(args.max_preempt_ms * MS),
            seed=args.seed,
        )
    else:
        strategy = RandomSweepStrategy()
    engine = None
    if args.snapshot:
        from repro.snapshot import SNAPSHOTS_SUPPORTED, SnapshotEngine

        if SNAPSHOTS_SUPPORTED:
            engine = SnapshotEngine()
    try:
        return _run_explore_inner(args, sweep, strategy, engine)
    finally:
        if engine is not None:
            engine.close()
            print(engine.stats.describe(), file=sys.stderr)


def _run_explore_inner(args, sweep, strategy, engine) -> int:
    import json

    from repro.analysis.report import (
        exploration_report,
        shrink_report,
        verification_report,
    )
    from repro import apps
    from repro.explore import (
        IN_BUDGET_PREEMPT_NS,
        Explorer,
        PctStrategy,
        shrink_schedule,
        verify_determinism,
    )

    app = getattr(args, "app", "brake")
    definition = apps.get(app)
    explorer = Explorer(
        experiment=definition.runner("nondet"),
        scenario=_explore_scenario(app, args.frames),
        base_seed=args.seed,
        strategy=strategy,
        sweep=sweep,
        snapshots=engine,
    )
    result = explorer.explore(budget=args.budget)
    print(exploration_report(result))

    schedule = result.found.schedule if result.found else None
    errors = dict(result.found.errors) if result.found else {}
    shrunk = None
    if result.found is not None and args.shrink:
        if schedule.preemptions:
            shrunk = shrink_schedule(explorer, schedule)
            schedule, errors = shrunk.minimal, dict(shrunk.errors)
            print(shrink_report(shrunk))
        else:
            print("shrink: schedule has no preemption points, nothing to remove")

    if result.found is not None and args.record:
        run_result, trace = explorer.record(schedule)
        trace.params["app"] = app
        trace.params["frames"] = args.frames
        trace.params["errors"] = run_result.errors.as_dict()
        trace.save(args.record)
        print(
            f"record: {len(trace.records)} decisions "
            f"({trace.fingerprint()[:12]}) -> {args.record}"
        )

    if args.schedule_out:
        artifact = {
            "app": app,
            "experiment": getattr(
                explorer.experiment, "__name__", repr(explorer.experiment)
            ),
            "strategy": result.strategy,
            "budget": result.budget,
            "executions_used": result.executions_used,
            "horizon": result.horizon,
            "found": result.found is not None,
            "schedule": schedule.to_dict() if schedule else None,
            "errors": errors,
            "shrink": (
                {"trials": shrunk.trials, "removed": shrunk.removed}
                if shrunk
                else None
            ),
            "snapshots": engine.stats.as_dict() if engine is not None else None,
        }
        with open(args.schedule_out, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"schedule artifact -> {args.schedule_out}")

    code = 0 if result.found is not None else 1
    if args.verify > 0:
        det_scenario = _explore_scenario(app, args.frames, deterministic=True)
        det_horizon = Explorer(
            experiment=definition.runner("det"),
            scenario=det_scenario,
            base_seed=args.seed,
        ).horizon
        in_budget = PctStrategy(
            depth=args.depth, preempt_ns=IN_BUDGET_PREEMPT_NS, seed=args.seed + 9
        )
        schedules = [
            in_budget.schedule_for(index + 1, args.seed, det_horizon)
            for index in range(args.verify)
        ]
        verification = verify_determinism(
            schedules,
            det_scenario,
            base_seed=args.seed,
            experiment=definition.runner("det"),
            input_threads=definition.input_threads,
            sweep=sweep,
        )
        print(verification_report(verification))
        if not verification.ok:
            code = 1
    return code


def _faults_plan(args: argparse.Namespace):
    """The :class:`FaultPlan` from ``--plan`` or the quick flags.

    Returns ``None`` when a library app was selected and no quick fault
    flag was set — the spec then falls through to the app's own default
    plan (e.g. the failover scenario's primary-node outage).
    """
    from repro.faults import FaultPlan, Partition
    from repro.time import MS

    if args.plan:
        return FaultPlan.load(args.plan)
    app = getattr(args, "app", "brake")
    partitions = []
    for window in args.partition or ():
        start_text, _, end_text = window.partition(":")
        try:
            start_ms, end_ms = float(start_text), float(end_text)
        except ValueError:
            raise SystemExit(
                f"--partition expects START_MS:END_MS, got {window!r}"
            ) from None
        partitions.append(
            Partition(start_ns=int(start_ms * MS), end_ns=int(end_ms * MS))
        )
    drop = args.drop if args.drop is not None else (
        0.05 if app == "brake" else 0.0
    )
    quick = any(
        p > 0.0
        for p in (drop, args.duplicate, args.reorder, args.corrupt, args.spike)
    ) or bool(partitions)
    if app != "brake" and not quick:
        return None
    return FaultPlan.camera_faults(
        seed=args.fault_seed,
        drop=drop,
        duplicate=args.duplicate,
        reorder=args.reorder,
        corrupt=args.corrupt,
        spike=args.spike,
        spike_ns=int(args.spike_ms * MS),
        partitions=tuple(partitions),
        label="cli-faults",
    )


def _faults_snapshot_triage(spec, det_runs, plan):
    """Minimize seed 0's fired faults to the decisive subset.

    ddmin over the fired-fault trace, with every probe forked from the
    deepest copy-on-write snapshot whose membership prefix matches —
    answering "which of the faults that fired actually changed the
    outcome?" without paying a full re-run per probe.  Returns a JSON
    block for the fault-sweep report, or ``None`` when there is nothing
    to triage (no faults fired, outcome unchanged, or no ``os.fork``).
    """
    from dataclasses import replace

    from repro.explore.decisions import DecisionTrace
    from repro.faults import shrink_fault_trace
    from repro.harness.config import run_scenario_spec
    from repro.snapshot import SNAPSHOTS_SUPPORTED, SnapshotEngine

    if not SNAPSHOTS_SUPPORTED or not det_runs:
        return None
    run0 = det_runs[0]
    trace_dict = (run0.fault_summary or {}).get("trace")
    if not trace_dict or not trace_dict.get("records"):
        return None
    trace = DecisionTrace.from_dict(trace_dict)
    seed = run0.seed

    def signature(result):
        return tuple(sorted(result.trace_fingerprints.items()))

    clean = signature(
        run_scenario_spec(seed, spec, fault_replay=replace(trace, records=[]))
    )
    if clean == signature(run0):
        return None  # the fired faults left no observable mark

    def failure(candidate, checkpointer=None):
        result = run_scenario_spec(
            seed,
            spec,
            fault_replay=candidate,
            fault_universe=trace if checkpointer is not None else None,
            fault_checkpointer=checkpointer,
        )
        return signature(result) != clean

    engine = SnapshotEngine()
    try:
        shrunk = shrink_fault_trace(plan, trace, failure, snapshots=engine)
    except ValueError:
        return None  # full-trace replay did not reproduce; don't guess
    finally:
        engine.close()
    print(f"snapshot triage (seed {seed}): {shrunk.describe()}")
    print(f"  {engine.stats.describe()}")
    return {
        "seed": seed,
        "fired": len(trace.records),
        "trials": shrunk.trials,
        "minimal": shrunk.minimal.to_dict(),
        "summary": shrunk.describe(),
        "stats": engine.stats.as_dict(),
    }


def _run_faults(args: argparse.Namespace, sweep) -> int:
    """``repro faults``: seeded fault sweep + DEAR determinism check.

    Runs both variants under the same fault plan with the deterministic
    camera.  In-bound faults must leave DEAR's logical traces identical
    across world seeds; divergence is acceptable only when flagged by
    the runtime (STP violations / deadline faults).  Silent divergence
    writes a counterexample artifact and exits nonzero.
    """
    import json
    from dataclasses import replace

    from repro.analysis.report import render_table
    from repro.faults import FaultPlan
    from repro.harness.config import ScenarioSpec

    plan = _faults_plan(args)
    spec = _load_spec(args)
    if spec is not None:
        app = spec.app
        if plan is not None:
            spec = replace(spec, faults=plan, variant="det")
        else:
            spec = replace(spec, variant="det")
    else:
        app = getattr(args, "app", "brake")
        scenario = _app_scenario(app, args.frames, 150)
        # The cross-seed trace-identity check needs seed-fixed inputs:
        # the deterministic camera for brake, the library analogue
        # (calm hosts, constant latencies, no input jitter) otherwise.
        deterministic_knob = (
            "deterministic_camera" if app == "brake" else "deterministic_inputs"
        )
        scenario = replace(
            scenario,
            late_policy=args.late_policy,
            **{deterministic_knob: True},
        )
        spec = ScenarioSpec(
            variant="det",
            seeds=tuple(range(args.seeds)),
            scenario=scenario,
            faults=plan,
            label="faults-det" if app == "brake" else f"faults-{app}-det",
            app=app,
        )
    # Library apps may carry their fault plan in the scenario itself
    # (e.g. failover's primary outage); report whatever actually runs.
    plan = spec.effective_faults() or FaultPlan(label="none")
    print(plan.describe())
    det_runs = sweep.run_spec(spec).values()
    nondet_label = (
        "faults-nondet" if app == "brake" else f"faults-{app}-nondet"
    )
    nondet_spec = replace(spec, variant="nondet", label=nondet_label)
    nondet_runs = sweep.run_spec(nondet_spec).values()

    rows = []
    for run in det_runs:
        summary = run.fault_summary or {}
        counters = summary.get("counters", {})
        rows.append([
            str(run.seed),
            str(summary.get("fired", 0)),
            str(counters.get("drop", 0) + counters.get("partition", 0)),
            str(run.errors.total()),
            str(run.stp_violations),
            str(run.deadline_misses),
        ])
    print(render_table(
        ["seed", "faults fired", "drops", "errors", "STP violations",
         "deadline misses"],
        rows,
        title="FAULTS - DEAR under the fault plan:",
    ))

    fingerprints = {
        tuple(sorted(run.trace_fingerprints.items())) for run in det_runs
    }
    det_deterministic = len(fingerprints) == 1
    flagged = sum(
        run.stp_violations + run.deadline_misses for run in det_runs
    )
    stock_outcomes = {
        tuple(sorted(run.commands.items())) for run in nondet_runs
    }
    print(
        f"DEAR logical traces identical across {len(det_runs)} seeds: "
        f"{det_deterministic} (flagged violations: {flagged})"
    )
    print(
        f"stock outcomes across {len(nondet_runs)} seeds: "
        f"{len(stock_outcomes)} distinct"
    )

    snapshots_block = (
        _faults_snapshot_triage(spec, det_runs, plan) if args.snapshot else None
    )

    silent_divergence = not det_deterministic and flagged == 0
    report = {
        "format": "fault-sweep-report/v1",
        "plan": plan.to_dict(),
        "spec": spec.to_dict(),
        "det": {
            "deterministic": det_deterministic,
            "distinct_fingerprints": len(fingerprints),
            "flagged_violations": flagged,
            "fingerprints": {
                str(run.seed): dict(run.trace_fingerprints)
                for run in det_runs
            },
            "fault_summaries": {
                str(run.seed): run.fault_summary for run in det_runs
            },
        },
        "stock": {
            "distinct_outcomes": len(stock_outcomes),
            "errors": {
                str(run.seed): run.errors.as_dict() for run in nondet_runs
            },
        },
        "silent_divergence": silent_divergence,
        "snapshots": snapshots_block,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"fault-sweep report -> {args.out}")
    if silent_divergence:
        with open(args.counterexample_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(
            "FAULTS: silent DEAR divergence under in-bound faults; "
            f"counterexample -> {args.counterexample_out}",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_flows(args: argparse.Namespace, sweep) -> int:
    """``repro flows``: causal flow sweep with a stock-vs-DEAR diff.

    Maps :func:`repro.obs.drivers.run_brake_flows` over the seed range
    for each requested variant, merges the per-seed ``flow-report/v1``
    documents, prints drop attribution and the critical path, and (with
    both variants) a stock-vs-DEAR delivery/drop diff.
    """
    import json
    from dataclasses import replace
    from functools import partial

    from repro import apps, obs
    from repro.obs.drivers import run_brake_flows
    from repro.analysis.report import render_table

    spec = _load_spec(args)
    fault_plan = None
    switch_config = None
    if spec is not None:
        app = spec.app
        scenario = spec.effective_scenario()
        seeds = list(spec.seeds)
        fault_plan = spec.faults
        switch_config = spec.switch_config()
    else:
        app = getattr(args, "app", "brake")
        scenario = _app_scenario(app, args.frames, 120)
        seeds = list(range(args.seeds))
        if args.drop > 0.0:
            if app != "brake":
                raise SystemExit(
                    "flows: --drop targets the brake camera flow; use "
                    "--spec with a fault plan for library apps"
                )
            from repro.faults import FaultPlan

            fault_plan = FaultPlan.camera_faults(
                seed=args.fault_seed, drop=args.drop, label="cli-flows"
            )
    definition = apps.get(app)
    variants = (
        ("det", "nondet") if args.variant == "both" else (args.variant,)
    )
    for variant in variants:
        if variant not in definition.variants():
            raise SystemExit(
                f"flows: app {app!r} has no variant {variant!r}; "
                f"known: {list(definition.variants())}"
            )
    merged: dict[str, dict] = {}
    for variant in variants:
        # The brake sweep name and params predate --app; keep them
        # byte-identical so existing result caches stay warm.
        params = {
            "frames": scenario.n_frames,
            "spec": spec.to_dict() if spec is not None else None,
            "faults": fault_plan.to_dict() if fault_plan is not None else None,
        }
        if app != "brake":
            params["app"] = app
        runs = sweep.map(
            partial(
                run_brake_flows,
                scenario=scenario,
                variant=variant,
                fault_plan=fault_plan,
                switch_config=switch_config,
                app=app,
            ),
            seeds,
            name=(
                f"flows-{variant}" if app == "brake"
                else f"flows-{app}-{variant}"
            ),
            params=params,
        )
        merged[variant] = obs.merge_flow_reports([run["report"] for run in runs])
        summary = merged[variant]["summary"]
        tag = variant if app == "brake" else f"{app} {variant}"
        drop_rows = [
            [cause, str(count)]
            for cause, count in summary["drops_by_cause"].items()
        ] or [["(none)", "0"]]
        print(render_table(
            ["drop cause", "frames"],
            drop_rows,
            title=(
                f"FLOWS - {tag}: {summary['delivered']}/{summary['total']} "
                f"delivered over {len(seeds)} seed(s), e2e p50 "
                f"{summary['e2e_p50_ns']} ns, p95 {summary['e2e_p95_ns']} ns"
            ),
        ))
        path = merged[variant]["critical_path"]
        seg_rows = [
            [name, str(stats["count"]), f"{stats['mean_ns']:.0f}",
             str(stats["max_ns"]), str(path["dominant"].get(name, 0))]
            for name, stats in path["segments"].items()
        ]
        print(render_table(
            ["segment", "hops", "mean ns", "max ns", "dominant for"],
            seg_rows,
            title=f"FLOWS - {tag} critical path:",
        ))

    diff = None
    if len(variants) == 2:
        det_s = merged["det"]["summary"]
        stock_s = merged["nondet"]["summary"]
        diff = {
            "det_delivered": det_s["delivered"],
            "stock_delivered": stock_s["delivered"],
            "det_dropped": det_s["dropped"],
            "stock_dropped": stock_s["dropped"],
            "det_drops_by_cause": det_s["drops_by_cause"],
            "stock_drops_by_cause": stock_s["drops_by_cause"],
            "stock_only_causes": sorted(
                set(stock_s["drops_by_cause"]) - set(det_s["drops_by_cause"])
            ),
            "det_e2e_p95_ns": det_s["e2e_p95_ns"],
            "stock_e2e_p95_ns": stock_s["e2e_p95_ns"],
        }
        print(
            f"FLOWS diff: DEAR delivered {det_s['delivered']}/{det_s['total']}"
            f" vs stock {stock_s['delivered']}/{stock_s['total']}; "
            f"stock-only drop causes: {diff['stock_only_causes'] or 'none'}"
        )

    if args.out:
        document = {
            "format": "flow-sweep-report/v1",
            "app": app,
            "frames": scenario.n_frames,
            "seeds": len(seeds),
            **{variant: merged[variant] for variant in variants},
        }
        if diff is not None:
            document["diff"] = diff
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        print(f"flow-sweep report -> {args.out}")

    if args.trace_out or args.metrics_out:
        observation, _ = obs.observe_brake_flows(
            seeds[0] if seeds else 0,
            replace(scenario, n_frames=min(scenario.n_frames, 200)),
            variants[0],
            fault_plan=fault_plan,
            switch_config=switch_config,
            app=app,
        )
        if args.trace_out:
            obs.write_trace(observation, args.trace_out)
            print(
                f"flow trace (seed {seeds[0] if seeds else 0}, "
                f"{variants[0]}) -> {args.trace_out}",
                file=sys.stderr,
            )
        if args.metrics_out:
            obs.write_metrics(observation, args.metrics_out)
            print(f"flow metrics -> {args.metrics_out}", file=sys.stderr)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """``repro serve``: coordinator + HTTP API (+ optional local workers)."""
    import os
    import threading

    from repro.harness.sweep import DEFAULT_CACHE_DIR, ResultStore
    from repro.obs import fleet
    from repro.service import (
        Coordinator,
        CoordinatorConfig,
        HttpClient,
        Worker,
        serve,
    )

    fleet.enable_from_env()
    store_dir = args.store_dir or os.environ.get(
        "REPRO_CACHE_DIR", DEFAULT_CACHE_DIR
    )
    config = CoordinatorConfig(
        chunk_size=args.chunk_size,
        max_attempts=args.max_attempts,
        lease_ttl_s=args.lease_ttl,
        job_timeout_s=args.job_timeout,
        retry_backoff_s=args.retry_backoff,
    )
    coordinator = Coordinator(ResultStore(store_dir), config)
    server = serve(coordinator, args.host, args.port)
    print(
        f"sweep-service/v1 coordinator on {server.url} "
        f"(store: {store_dir}, chunk {config.chunk_size}, "
        f"lease TTL {config.lease_ttl_s:g}s)",
        flush=True,
    )
    stop = threading.Event()
    threads = []
    for index in range(args.local_workers):
        local = Worker(
            HttpClient(server.url), info={"local": True, "index": index}
        )
        thread = threading.Thread(
            target=local.run, kwargs={"stop": stop}, daemon=True
        )
        threads.append(thread)
        thread.start()
    if args.local_workers:
        print(f"spawned {args.local_workers} local worker(s)", flush=True)
    try:
        if args.campaigns > 0:
            import time as _time

            while True:
                campaigns = coordinator.campaigns()
                done = sum(1 for c in campaigns if c["status"] == "done")
                if done >= args.campaigns:
                    # Wind down the local workers (their lease polling
                    # would otherwise never let the API go quiet), then
                    # linger until clients finish draining results: a
                    # `submit --wait` still has result/report reads in
                    # flight when its campaign completes.
                    stop.set()
                    if _time.monotonic() - server.last_request > 1.0:
                        print(
                            f"served {done} campaign(s); shutting down",
                            flush=True,
                        )
                        break
                    _time.sleep(0.1)
                else:
                    stop.wait(0.2)
        else:
            while not stop.wait(3600.0):
                pass
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        server.shutdown()
        server.server_close()
    return 0


def _run_submit(args: argparse.Namespace) -> int:
    """``repro submit``: one campaign in, (optionally) one merged result out."""
    import json

    from repro.harness.config import ScenarioSpec
    from repro.service import HttpClient, seed_outcomes

    spec = ScenarioSpec.load(args.spec)
    client = HttpClient(args.coordinator)
    client.connect(timeout_s=args.connect_timeout)
    status = client.submit(spec)
    campaign = status["campaign"]
    print(
        f"campaign {campaign}: {status['seeds']} seed(s), "
        f"{status['cached']} cached, {status['jobs']} job(s) queued"
    )
    if not args.wait:
        print(f"poll with: repro submit --wait or GET /v1/status/{campaign}")
        return 0
    result = client.wait(campaign, timeout_s=args.timeout)
    outcomes = seed_outcomes(result)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    cached = sum(1 for outcome in outcomes if outcome.cached)
    print(
        f"campaign {campaign} done in {result['elapsed_s']:.3f}s: "
        f"{len(outcomes)} seed(s), {cached} cached, "
        f"{len(failures)} failure(s)"
    )
    for outcome in failures:
        first_line = (outcome.error or "").strip().splitlines()[-1:]
        print(f"  seed {outcome.seed}: {first_line[0] if first_line else '?'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
        print(f"result -> {args.out}")
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(client.report(campaign), handle, indent=2, sort_keys=True)
        print(f"report -> {args.report_out}")
    return 1 if failures else 0


def _run_worker(args: argparse.Namespace) -> int:
    """``repro worker``: join a coordinator's fleet from this host."""
    from repro.obs import fleet
    from repro.service import HttpClient, Worker

    fleet.enable_from_env()
    client = HttpClient(args.coordinator)
    client.connect(timeout_s=args.connect_timeout)
    worker = Worker(client, poll_interval_s=args.poll)
    completed = worker.run(
        max_idle_s=args.idle_exit, max_jobs=args.max_jobs or None
    )
    print(
        f"worker {worker.worker_id}: {completed} job(s) completed, "
        f"{worker.jobs_failed} failed "
        f"({worker.heartbeat_failures} heartbeat failure(s))"
    )
    return 0


def _latest_campaign(client, campaign_id: str | None) -> str:
    """Resolve the campaign argument (default: most recently submitted)."""
    if campaign_id:
        return campaign_id
    campaigns = client.campaigns()
    if not campaigns:
        raise SystemExit("no campaigns submitted to this coordinator yet")
    return campaigns[-1]["campaign"]


def _status_table(status: dict, report: dict) -> str:
    """Render one campaign's live status as a fixed-width table."""
    eta = status.get("eta_s")
    lines = [
        f"campaign {status['campaign']} [{status['status']}]  "
        f"label: {status.get('label', '?')}",
        f"  seeds: {status['seeds']}  pending: {status['pending']}  "
        f"cached: {status['cached']}  failed: {status['failed']}",
        f"  jobs: {status['jobs']}  done: {status['jobs_done']}  "
        f"queue: {status.get('queue_depth', '?')}  "
        f"leased: {status.get('leased', '?')}",
        f"  elapsed: {status.get('elapsed_s', 0):.1f}s  "
        f"rate: {status.get('seeds_per_s', 0):.2f} seeds/s  "
        f"eta: {f'{eta:.1f}s' if isinstance(eta, (int, float)) else '?'}",
        "",
        f"  {'job':<24} {'state':<8} {'attempt':>7} {'requeues':>8} "
        f"{'worker':<8} {'seeds'}",
    ]
    for job in report.get("jobs", []):
        seeds = ",".join(str(seed) for seed in job.get("seeds", []))
        if len(seeds) > 24:
            seeds = seeds[:21] + "..."
        lines.append(
            f"  {job['job']:<24} {job['state']:<8} {job['attempt']:>7} "
            f"{job['requeues']:>8} {str(job.get('worker') or '-'):<8} {seeds}"
        )
    return "\n".join(lines)


def _run_status(args: argparse.Namespace) -> int:
    """``repro status [campaign] [--watch]``: live campaign status."""
    import time as _time

    from repro.service import HttpClient

    client = HttpClient(args.coordinator)
    campaign = _latest_campaign(client, args.campaign)
    while True:
        status = client.status(campaign)
        report = client.report(campaign)
        table = _status_table(status, report)
        if args.watch:
            # Clear + home, like `watch(1)`, so the table refreshes in
            # place on any ANSI terminal.
            print(f"\x1b[2J\x1b[H{table}", flush=True)
        else:
            print(table)
        if not args.watch or status["status"] == "done":
            return 0
        _time.sleep(max(0.05, args.interval))


def _run_report(args: argparse.Namespace) -> int:
    """``repro report [campaign]``: post-mortem + optional fleet trace."""
    import json

    from repro.obs import fleet
    from repro.service import HttpClient

    client = HttpClient(args.coordinator)
    campaign = _latest_campaign(client, args.campaign)
    report = client.report(campaign)
    merged = report.get("fleet", {}).get("merged", {})
    print(
        f"campaign {campaign} [{report['status']}]: "
        f"{report['seeds']} seed(s), {report['cached']} cached, "
        f"{report['failed']} failed, {report['requeues']} requeue(s), "
        f"{report['retries']} retry(ies)"
    )
    print(
        f"  fleet: {report.get('fleet', {}).get('sources', 0)} telemetry "
        f"source(s), {len(merged.get('counters', {}))} counter(s), "
        f"{len(merged.get('histograms', {}))} histogram(s)"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report -> {args.out}")
    if args.trace_out:
        path = fleet.write_fleet_trace(report, args.trace_out)
        events = len(fleet.fleet_trace_events(report))
        print(f"fleet trace: {events} event(s) -> {path}")
    return 0


def _run_bench_diff(args: argparse.Namespace) -> int:
    """``repro bench-diff``: the perf-trajectory gate."""
    import json

    from repro.harness.benchdiff import compare_dirs, render_bench_diff

    report = compare_dirs(
        args.baseline_dir,
        args.current_dir,
        tolerance=args.tolerance,
        gate_fields=args.gate_fields,
        only=args.only,
    )
    print(render_bench_diff(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"bench-diff report -> {args.out}")
    if args.strict and report["summary"]["fail"]:
        print(
            f"bench-diff: {report['summary']['fail']} regression(s) beyond "
            f"tolerance {args.tolerance}",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    """``repro trace det|nondet``: one observed run -> Perfetto JSON."""
    from repro import obs

    app = getattr(args, "app", "brake")
    scenario = _app_scenario(app, args.frames, 200)
    observation, result = obs.observe_brake_run(
        args.seed, scenario, args.experiment, app=app
    )
    path = obs.write_trace(observation, args.trace_out or "trace.json")
    print(
        f"trace: {len(observation.bus)} events on tracks "
        f"{observation.bus.tracks()} -> {path}"
    )
    if args.metrics_out:
        obs.write_metrics(observation, args.metrics_out)
        print(f"metrics -> {args.metrics_out}")
    errors = {k: v for k, v in result.errors.as_dict().items() if v}
    print(
        f"run: {app} {args.experiment}, seed {args.seed}, "
        f"{scenario.n_frames} frames, errors: {errors or 'none'}"
    )
    return 0


def _run_metrics(args: argparse.Namespace, sweep) -> int:
    """``repro metrics det|nondet``: cross-seed metric aggregates."""
    import json
    from functools import partial

    from repro import obs
    from repro.analysis.report import render_table
    from repro.harness.sweep import merge_metric_snapshots
    from repro.obs.drivers import run_brake_with_obs

    app = getattr(args, "app", "brake")
    scenario = _app_scenario(app, args.frames, 200)
    params = {"frames": scenario.n_frames}
    if app != "brake":
        params["app"] = app
    runs = sweep.map(
        partial(
            run_brake_with_obs,
            scenario=scenario,
            variant=args.experiment,
            app=app,
        ),
        range(args.seeds),
        name=(
            f"obs-{args.experiment}" if app == "brake"
            else f"obs-{app}-{args.experiment}"
        ),
        params=params,
    )
    aggregate = merge_metric_snapshots(runs)

    tag = args.experiment if app == "brake" else f"{app} {args.experiment}"
    rows = [
        [name, str(entry["total"]), str(entry["p50"]), str(entry["max"])]
        for name, entry in aggregate["counters"].items()
    ]
    print(render_table(
        ["counter", "total", "p50/seed", "max/seed"], rows,
        title=f"OBS - {tag} counters over {args.seeds} seeds:",
    ))
    rows = [
        [
            name,
            str(entry["count"]),
            f"{entry['mean']:.0f}",
            str(entry["p50"]),
            str(entry["p95"]),
            str(entry["max"]),
        ]
        for name, entry in aggregate["histograms"].items()
    ]
    print(render_table(
        ["histogram", "samples", "mean", "p50", "p95", "max"], rows,
        title="OBS - merged histograms (ns):",
    ))
    if args.metrics_out:
        document = {
            "format": "repro-metrics-aggregate/v1",
            "app": app,
            "experiment": args.experiment,
            "frames": scenario.n_frames,
            "seeds": args.seeds,
            "aggregate": aggregate,
        }
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        print(f"metrics aggregate -> {args.metrics_out}")
    if args.trace_out:
        observation, _ = obs.observe_brake_run(
            0, scenario, args.experiment, app=app
        )
        obs.write_trace(observation, args.trace_out)
        print(f"representative trace (seed 0) -> {args.trace_out}")
    return 0


def _run_library(args: argparse.Namespace) -> int:
    """``repro library``: list the registered applications."""
    import json

    from repro import apps
    from repro.analysis.report import render_table

    entries = []
    for definition in apps.apps():
        scenario = definition.default_scenario()
        topology = definition.topology_for(scenario)
        entries.append({
            "name": definition.name,
            "title": definition.title,
            "library": definition.library,
            "variants": list(definition.variants()),
            "nodes": list(topology.nodes) if topology is not None else [],
            "switches": list(topology.switches) if topology is not None else [],
            "default_faults": definition.default_faults is not None,
            "description": definition.description,
        })
    if args.json:
        print(json.dumps({"format": "app-library/v1", "apps": entries},
                         indent=2, sort_keys=True))
        return 0
    rows = [
        [
            entry["name"],
            ",".join(entry["variants"]),
            (f"{len(entry['nodes'])} nodes / {len(entry['switches'])} "
             "switches") if entry["nodes"] else "(app default)",
            "yes" if entry["default_faults"] else "-",
            entry["title"],
        ]
        for entry in entries
    ]
    print(render_table(
        ["app", "variants", "topology", "faults", "title"],
        rows,
        title="Registered applications (run with --app NAME or a v2 spec):",
    ))
    for entry in entries:
        print(f"  {entry['name']}: {entry['description']}")
    return 0


def _export_observability(args: argparse.Namespace) -> None:
    """Honour ``--trace-out``/``--metrics-out`` on regular subcommands.

    Runs one observed representative brake run (nondet for the stock-AP
    figures, det otherwise) and writes the requested artifacts, without
    touching the experiment results themselves.
    """
    if not (getattr(args, "trace_out", None) or getattr(args, "metrics_out", None)):
        return
    from repro import obs

    variant = "nondet" if args.command in ("fig1", "fig5") else "det"
    app = getattr(args, "app", "brake")
    frames = getattr(args, "frames", None)
    frames = min(frames, 500) if frames is not None else None
    seed = getattr(args, "seed", 0) or 0
    scenario = _app_scenario(app, frames, 200)
    observation, _ = obs.observe_brake_run(seed, scenario, variant, app=app)
    if args.trace_out:
        obs.write_trace(observation, args.trace_out)
        print(
            f"observability: representative {variant} trace -> {args.trace_out}",
            file=sys.stderr,
        )
    if args.metrics_out:
        obs.write_metrics(observation, args.metrics_out)
        print(
            f"observability: representative {variant} metrics -> {args.metrics_out}",
            file=sys.stderr,
        )


_ALL = (
    "fig1", "fig3", "fig5", "det", "tradeoff", "ablation",
    "overhead", "let", "skew", "scaling", "native", "distributed",
)

_QUICK_SIZES = {
    "fig1": {"seeds": 40},
    "fig5": {"runs": 6, "frames": 400},
    "det": {"seeds": 2, "frames": 150},
    "tradeoff": {"frames": 100},
    "ablation": {"seeds": 8},
    "overhead": {"frames": 150},
    "let": {"frames": 100},
    "distributed": {"frames": 100},
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench-diff":
        # No sweep options: dispatched before _make_sweep reads them.
        return _run_bench_diff(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit":
        return _run_submit(args)
    if args.command == "worker":
        return _run_worker(args)
    if args.command == "status":
        return _run_status(args)
    if args.command == "report":
        return _run_report(args)
    if args.command == "library":
        return _run_library(args)
    sweep = _make_sweep(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "metrics":
        code = _run_metrics(args, sweep)
        if sweep.stats.sweeps:
            print(sweep.stats.summary_line(), file=sys.stderr)
        return code
    if args.command == "flows":
        code = _run_flows(args, sweep)
        if sweep.stats.sweeps:
            print(sweep.stats.summary_line(), file=sys.stderr)
        return code
    if args.command == "faults":
        code = _run_faults(args, sweep)
        _export_observability(args)
        if sweep.stats.sweeps:
            print(sweep.stats.summary_line(), file=sys.stderr)
        return code
    if args.command == "explore":
        code = _run_explore(args, sweep)
        _export_observability(args)
        if sweep.stats.sweeps:
            print(sweep.stats.summary_line(), file=sys.stderr)
        return code
    if args.command != "all":
        print(_run_one(args.command, args, sweep))
        _export_observability(args)
        if sweep.stats.sweeps:
            print(sweep.stats.summary_line(), file=sys.stderr)
        return 0
    for name in _ALL:
        sub_args = build_parser().parse_args([name])
        if args.quick:
            for key, value in _QUICK_SIZES.get(name, {}).items():
                setattr(sub_args, key, value)
        started = time.time()
        print(f"==== {name} " + "=" * (60 - len(name)))
        print(_run_one(name, sub_args, sweep))
        print(f"---- {name} done in {time.time() - started:.1f}s\n")
    _export_observability(args)
    if sweep.stats.sweeps:
        print(sweep.stats.summary_line(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
