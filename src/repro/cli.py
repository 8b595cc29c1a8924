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
the text rendering of the paper figure/table it reproduces.  The twelve
figure/extension subcommands are rows of one command table
(:data:`_FIGURES`) that builds their parsers, runs them and drives
``all``; every other subcommand is one entry of :data:`_COMMANDS`.
Sweeps run in parallel on a process pool (``--workers``,
``REPRO_WORKERS``, default: all cores) and cache per-seed results under
``.repro_cache/`` so repeated invocations only pay for what changed; a
throughput summary (seeds/s, cache hits) is printed to stderr after
each run.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field, replace
from functools import partial

#: Brake's frames for an observed run (``trace``, ``metrics`` and the
#: ``--trace-out`` ride-along); library apps run at their own size.
_OBSERVED_FRAMES = 200

#: Brake's ``faults --drop`` default; library apps default to no drop.
_BRAKE_DROP = 0.05


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


def _add_frames(
    parser: argparse.ArgumentParser, brake_frames: int, what: str = "frames per run"
) -> None:
    """``--frames`` of an app-generic subcommand, and brake's own default.

    Library scenarios run at their own size unless ``--frames`` is
    given; the brake app (which predates the library) keeps its
    historical per-subcommand default, stored as ``args.brake_frames``.
    """
    parser.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help=f"{what} (default: {brake_frames} for brake, the scenario's "
             "own size for library apps)",
    )
    parser.set_defaults(brake_frames=brake_frames)


def _app_scenario(app: str, frames: int | None, brake_frames: int):
    """The app's default scenario with ``--frames`` applied."""
    from repro import apps

    definition = apps.get(app)
    if frames is None and not definition.library:
        frames = brake_frames
    scenario = definition.default_scenario()
    return scenario if frames is None else replace(scenario, n_frames=frames)


@dataclass(frozen=True)
class _Figure:
    """One figure/extension subcommand: its parser, driver and sizes."""

    name: str
    help: str
    #: ``driver`` as ``"module:function"`` under :mod:`repro.harness`.
    driver: str
    #: ``(flag, driver keyword, default, help)`` per int flag.
    flags: tuple[tuple[str, str, int, str], ...] = ()
    #: flag dest -> size under ``all --quick``.
    quick: dict = field(default_factory=dict)
    #: variant of the ``--trace-out``/``--metrics-out`` representative run.
    observed: str = "det"

    def defaults(self, quick: bool) -> dict:
        """Flag dest -> default, or the ``all --quick`` size if *quick*."""
        sizes = {flag[2:]: default for flag, _, default, _ in self.flags}
        return {**sizes, **self.quick} if quick else sizes

    def render(self, sizes: dict, sweep, spec) -> str:
        """Run the driver at *sizes*, handing it whichever of *sweep* and
        *spec* its signature takes, and render the result."""
        module, _, name = self.driver.partition(":")
        driver = getattr(importlib.import_module(f"repro.harness.{module}"), name)
        kwargs = {keyword: sizes[flag[2:]] for flag, keyword, _, _ in self.flags}
        accepted = inspect.signature(driver).parameters
        shared = {"sweep": sweep, "spec": spec}
        kwargs.update((key, value) for key, value in shared.items() if key in accepted)
        return driver(**kwargs).render()


_FIGURES = (
    _Figure(
        "fig1", "Figure 1: client/server histogram", "figures:figure1",
        (("--seeds", "nondet_seeds", 200, "number of stock-AP runs"),),
        {"seeds": 40}, "nondet",
    ),
    _Figure("fig3", "Figure 3: tagged message sequence", "figures:figure3_sequence"),
    _Figure(
        "fig5", "Figure 5: error prevalence", "figures:figure5",
        (("--runs", "n_runs", 20, "number of experiment instances"),
         ("--frames", "n_frames", 2_000, "frames per run (paper: 100000)")),
        {"runs": 6, "frames": 400}, "nondet",
    ),
    _Figure(
        "det", "Section IV.B: deterministic variant", "figures:det_case_study",
        (("--seeds", "n_seeds", 5, "number of seeds"),
         ("--frames", "n_frames", 500, "frames per run")),
        {"seeds": 2, "frames": 150},
    ),
    _Figure(
        "tradeoff", "deadline vs. error/latency", "figures:tradeoff",
        (("--frames", "n_frames", 300, "frames per point"),),
        {"frames": 100},
    ),
    _Figure(
        "ablation", "the three sources (II.B)", "figures:ablation_sources",
        (("--seeds", "n_seeds", 25, "seeds per configuration"),), {"seeds": 8},
    ),
    _Figure(
        "overhead", "cost of determinism", "figures:overhead",
        (("--frames", "n_frames", 400, "frames per variant"),),
        {"frames": 150},
    ),
    _Figure(
        "let", "LET baseline comparison", "figures:let_baseline",
        (("--frames", "n_frames", 300, "frames"),), {"frames": 100},
    ),
    _Figure("skew", "EXT: clock-sync error sweep", "extensions:clock_skew_sweep"),
    _Figure("scaling", "EXT: pipeline-depth latency", "extensions:pipeline_scaling"),
    _Figure(
        "native", "EXT: native tag transport",
        "extensions:native_transport_comparison",
    ),
    _Figure(
        "distributed", "EXT: brake assistant across two processing ECUs",
        "extensions:distributed_brake",
        (("--frames", "n_frames", 200, "frames per configuration"),),
        {"frames": 100},
    ),
)


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
    # The sweep-service clients' shared options.
    coordinator = argparse.ArgumentParser(add_help=False)
    coordinator.add_argument(
        "--coordinator", default="http://127.0.0.1:8765", metavar="URL",
        help="coordinator base URL (default: http://127.0.0.1:8765)",
    )
    connect = argparse.ArgumentParser(add_help=False)
    connect.add_argument(
        "--connect-timeout", type=float, default=30.0, metavar="S",
        help="seconds to wait for the coordinator to come up (default: 30)",
    )
    campaign = argparse.ArgumentParser(add_help=False)
    campaign.add_argument(
        "campaign", nargs="?", default=None,
        help="campaign id (default: the most recently submitted)",
    )

    for figure in _FIGURES:
        sub = commands.add_parser(figure.name, help=figure.help, parents=[common])
        for flag, _, default, help_text in figure.flags:
            _add_int(sub, flag, default, help_text)

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
             f"(default: {_BRAKE_DROP} for brake, 0 for library apps)",
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
    _add_frames(faults, 150)
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
    _add_frames(flows, 120)
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
        parents=[coordinator, connect],
    )
    submit.add_argument(
        "--spec", required=True, metavar="FILE",
        help="scenario-spec/v1 JSON file describing the campaign",
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
        parents=[coordinator, connect],
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

    status = commands.add_parser(
        "status",
        help="live campaign status from a running coordinator "
             "(per-job state, queue depth, seeds/s, ETA)",
        parents=[campaign, coordinator],
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
        parents=[campaign, coordinator],
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
    _add_frames(trace, _OBSERVED_FRAMES, "frames for the observed run")

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
    _add_frames(metrics, _OBSERVED_FRAMES)

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


def _write_json(path: str, document, what: str | None = None) -> None:
    """Write *document* as sorted, indented JSON; announce it as *what*."""
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    if what:
        print(f"{what} -> {path}")


def _load_spec(args: argparse.Namespace):
    """The :class:`ScenarioSpec` named by ``--spec``, or ``None``."""
    if not getattr(args, "spec", None):
        return None
    from repro.harness.config import ScenarioSpec

    return ScenarioSpec.load(args.spec)


def _run_figure(figure: _Figure, args: argparse.Namespace, sweep) -> int:
    """One figure/extension subcommand: print the driver's rendering."""
    print(figure.render(vars(args), sweep, _load_spec(args)))
    return 0


def _run_all(args: argparse.Namespace, sweep) -> int:
    """``repro all``: every table row at its default (or quick) sizes."""
    for figure in _FIGURES:
        started = time.time()
        print(f"==== {figure.name} " + "=" * (60 - len(figure.name)))
        print(figure.render(figure.defaults(args.quick), sweep, None))
        print(f"---- {figure.name} done in {time.time() - started:.1f}s\n")
    return 0


def _explore_scenario(app: str, frames: int, deterministic: bool = False):
    """The scenario explore/replay runs: hazard-prone and small.

    Brake (the non-library app) uses its calibration scenario,
    tightened to provoke failures; library scenarios are hazard-prone
    by construction and just get the frame count applied.
    *deterministic* sets the app's seed-fixed-input knob.
    """
    from repro import apps
    from repro.explore import calibration_scenario

    definition = apps.get(app)
    if definition.library:
        scenario = replace(definition.default_scenario(), n_frames=frames)
    else:
        scenario = calibration_scenario(frames)
    return replace(scenario, **{definition.fixed_inputs_knob: deterministic})


def _replay_trace(args: argparse.Namespace) -> int:
    """``repro explore --replay FILE``: re-execute a recorded trace."""
    from repro import apps
    from repro.explore import ScheduleReplayer
    from repro.explore.decisions import DecisionTrace
    from repro.sim.rng import stream_hooks

    trace = DecisionTrace.load(args.replay)
    app = trace.params.get("app", args.app)
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
    from repro import apps
    from repro.analysis.report import (
        exploration_report,
        shrink_report,
        verification_report,
    )
    from repro.explore import (
        IN_BUDGET_PREEMPT_NS,
        Explorer,
        PctStrategy,
        RandomSweepStrategy,
        shrink_schedule,
        verify_determinism,
    )
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
        app = args.app
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
            _write_json(args.schedule_out, artifact, "schedule artifact")

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
    finally:
        if engine is not None:
            engine.close()
            print(engine.stats.describe(), file=sys.stderr)


def _faults_plan(args: argparse.Namespace, definition, spec):
    """The :class:`FaultPlan` from ``--plan`` or the quick flags.

    Returns ``None`` to keep the plan the run already has: the spec's
    own faults under ``--spec``, or a library app's default plan (e.g.
    the failover scenario's primary-node outage), unless ``--plan`` or a
    quick fault flag was given.  Brake without ``--spec`` always gets
    the camera-drop plan.
    """
    from repro.faults import FaultPlan, Partition
    from repro.time import MS

    if args.plan:
        return FaultPlan.load(args.plan)
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
    quick = any(
        p > 0.0
        for p in (
            args.drop or 0.0, args.duplicate, args.reorder, args.corrupt,
            args.spike,
        )
    ) or bool(partitions)
    if not quick and (spec is not None or definition.library):
        return None
    drop = args.drop if args.drop is not None else (
        0.0 if definition.library else _BRAKE_DROP
    )
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
    from repro.explore.decisions import DecisionTrace
    from repro.faults import replay, shrink_fault_trace
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

    with replay(replace(trace, records=[])):
        clean = signature(run_scenario_spec(seed, spec))
    if clean == signature(run0):
        return None  # the fired faults left no observable mark

    def failure(_candidate):
        return signature(run_scenario_spec(seed, spec)) != clean

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
    from repro import apps
    from repro.analysis.report import render_table
    from repro.faults import FaultPlan
    from repro.harness.config import ScenarioSpec

    spec = _load_spec(args)
    definition = apps.get(spec.app if spec is not None else args.app)
    plan = _faults_plan(args, definition, spec)
    if spec is not None:
        spec = replace(
            spec, variant="det", faults=spec.faults if plan is None else plan
        )
    else:
        scenario = _app_scenario(args.app, args.frames, args.brake_frames)
        # The cross-seed trace-identity check needs seed-fixed inputs:
        # the deterministic camera for brake, the library analogue
        # (calm hosts, constant latencies, no input jitter) otherwise.
        scenario = replace(
            scenario,
            late_policy=args.late_policy,
            **{definition.fixed_inputs_knob: True},
        )
        spec = ScenarioSpec(
            variant="det",
            seeds=tuple(range(args.seeds)),
            scenario=scenario,
            faults=plan,
            label=definition.qualified("faults", "det"),
            app=definition.name,
        )
    # Library apps may carry their fault plan in the scenario itself
    # (e.g. failover's primary outage); report whatever actually runs.
    plan = spec.effective_faults() or FaultPlan(label="none")
    print(plan.describe())
    det_runs = sweep.run_spec(spec).values()
    nondet_spec = replace(
        spec, variant="nondet", label=definition.qualified("faults", "nondet")
    )
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
        _write_json(args.out, report, "fault-sweep report")
    if silent_divergence:
        _write_json(args.counterexample_out, report)
        print(
            "FAULTS: silent DEAR divergence under in-bound faults; "
            f"counterexample -> {args.counterexample_out}",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_flows(args: argparse.Namespace, sweep) -> int:
    """``repro flows``: causal flow sweep with a stock-vs-DEAR diff.

    Maps :func:`repro.harness.flow_summary` over the seed range for
    each requested variant, merges the per-seed ``flow-report/v1``
    documents, prints drop attribution and the critical path, and (with
    both variants) a stock-vs-DEAR delivery/drop diff.
    """
    from repro import apps, obs
    from repro.analysis.report import render_table
    from repro.harness.config import ScenarioSpec, flow_summary, observe_run

    spec = _load_spec(args)
    fault_plan = None
    if spec is not None:
        app = spec.app
        seeds = list(spec.seeds)
    else:
        app = args.app
        seeds = list(range(args.seeds))
        if args.drop > 0.0:
            if apps.get(app).library:
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
    base = spec or ScenarioSpec(
        app=app,
        variant=variants[0],
        scenario=_app_scenario(app, args.frames, args.brake_frames),
        faults=fault_plan,
    )
    frames = base.scenario.n_frames
    merged: dict[str, dict] = {}
    for variant in variants:
        runs = sweep.map(
            partial(flow_summary, spec=replace(base, variant=variant)),
            seeds,
            name=definition.qualified("flows", variant),
            params=definition.sweep_params(
                frames=frames,
                spec=spec.to_dict() if spec is not None else None,
                faults=base.faults.to_dict() if base.faults is not None else None,
            ),
        )
        merged[variant] = obs.merge_flow_reports([run["report"] for run in runs])
        summary = merged[variant]["summary"]
        tag = definition.qualified("", variant, sep=" ")
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
            "frames": frames,
            "seeds": len(seeds),
            **{variant: merged[variant] for variant in variants},
        }
        if diff is not None:
            document["diff"] = diff
        _write_json(args.out, document, "flow-sweep report")

    if args.trace_out or args.metrics_out:
        seed = seeds[0] if seeds else 0
        observed = replace(
            base,
            variant=variants[0],
            scenario=replace(base.scenario, n_frames=min(frames, 200)),
        )
        observation, _ = observe_run(seed, observed, flows=True)
        _write_observation(
            observation,
            trace=(args.trace_out, f"flow trace (seed {seed}, {variants[0]})"),
            metrics=(args.metrics_out, "flow metrics"),
            file=sys.stderr,
        )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """``repro serve``: coordinator + HTTP API (+ optional local workers)."""
    import os

    from repro.harness.sweep import DEFAULT_CACHE_DIR
    from repro.service import CoordinatorConfig, LocalService

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
    service = LocalService(
        store_dir, args.local_workers, config, host=args.host, port=args.port
    )
    print(
        f"sweep-service/v1 coordinator on {service.url} "
        f"(store: {store_dir}, chunk {config.chunk_size}, "
        f"lease TTL {config.lease_ttl_s:g}s)",
        flush=True,
    )
    if args.local_workers:
        print(f"spawned {args.local_workers} local worker(s)", flush=True)
    try:
        while args.campaigns <= 0:
            time.sleep(3600.0)
        while True:
            campaigns = service.coordinator.campaigns()
            done = sum(1 for c in campaigns if c["status"] == "done")
            if done < args.campaigns:
                time.sleep(0.2)
                continue
            # Wind down the local workers (their lease polling would
            # otherwise never let the API go quiet), then linger until
            # clients finish draining results: a `submit --wait` still
            # has result/report reads in flight when its campaign
            # completes.
            service.stop_workers()
            if time.monotonic() - service.server.last_request > 1.0:
                print(f"served {done} campaign(s); shutting down", flush=True)
                break
            time.sleep(0.1)
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        service.close()
    return 0


def _run_submit(args: argparse.Namespace) -> int:
    """``repro submit``: one campaign in, (optionally) one merged result out."""
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
        _write_json(args.out, result, "result")
    if args.report_out:
        _write_json(args.report_out, client.report(campaign), "report")
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


def _campaign_client(args: argparse.Namespace):
    """A client of ``--coordinator`` and the campaign argument's id
    (default: the most recently submitted campaign)."""
    from repro.service import HttpClient

    client = HttpClient(args.coordinator)
    if args.campaign:
        return client, args.campaign
    campaigns = client.campaigns()
    if not campaigns:
        raise SystemExit("no campaigns submitted to this coordinator yet")
    return client, campaigns[-1]["campaign"]


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
    client, campaign = _campaign_client(args)
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
        time.sleep(max(0.05, args.interval))


def _run_report(args: argparse.Namespace) -> int:
    """``repro report [campaign]``: post-mortem + optional fleet trace."""
    from repro.obs import fleet, write_trace

    client, campaign = _campaign_client(args)
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
        _write_json(args.out, report, "report")
    if args.trace_out:
        bus = fleet.fleet_trace_bus(report)
        path = write_trace(bus, args.trace_out, **fleet.fleet_trace_labels(report))
        # The bus's events plus one process and one thread record per track.
        events = len(bus) + 1 + len(bus.tracks())
        print(f"fleet trace: {events} event(s) -> {path}")
    return 0


def _run_bench_diff(args: argparse.Namespace) -> int:
    """``repro bench-diff``: the perf-trajectory gate."""
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
        _write_json(args.out, report, "bench-diff report")
    if args.strict and report["summary"]["fail"]:
        print(
            f"bench-diff: {report['summary']['fail']} regression(s) beyond "
            f"tolerance {args.tolerance}",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_trace(args: argparse.Namespace, _sweep) -> int:
    """``repro trace det|nondet``: one observed run -> Perfetto JSON."""
    from repro.harness.config import ScenarioSpec, observe_run

    app = args.app
    scenario = _app_scenario(app, args.frames, args.brake_frames)
    observation, result = observe_run(
        args.seed,
        ScenarioSpec(app=app, variant=args.experiment, scenario=scenario),
    )
    bus = observation.bus
    _write_observation(
        observation,
        trace=(
            args.trace_out or "trace.json",
            f"trace: {len(bus)} events on tracks {bus.tracks()}",
        ),
        metrics=(args.metrics_out, "metrics"),
    )
    errors = {k: v for k, v in result.errors.as_dict().items() if v}
    print(
        f"run: {app} {args.experiment}, seed {args.seed}, "
        f"{scenario.n_frames} frames, errors: {errors or 'none'}"
    )
    return 0


def _run_metrics(args: argparse.Namespace, sweep) -> int:
    """``repro metrics det|nondet``: cross-seed metric aggregates."""
    from repro import apps
    from repro.analysis.report import render_table
    from repro.harness.config import ScenarioSpec, flow_summary, observe_run
    from repro.obs.metrics import aggregate_snapshots

    app = args.app
    definition = apps.get(app)
    scenario = _app_scenario(app, args.frames, args.brake_frames)
    spec = ScenarioSpec(app=app, variant=args.experiment, scenario=scenario)
    runs = sweep.map(
        partial(flow_summary, spec=spec, flows=False),
        range(args.seeds),
        name=definition.qualified("obs", args.experiment),
        params=definition.sweep_params(frames=scenario.n_frames),
    )
    aggregate = aggregate_snapshots([run["metrics"] for run in runs])

    tag = definition.qualified("", args.experiment, sep=" ")
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
        _write_json(args.metrics_out, document, "metrics aggregate")
    if args.trace_out:
        observation, _ = observe_run(0, spec)
        _write_observation(
            observation, trace=(args.trace_out, "representative trace (seed 0)")
        )
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
            "default_faults": definition.faults_for(scenario) is not None,
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

    Runs one observed representative run of the app (nondet for the
    stock-AP figures, det otherwise) and writes the requested artifacts,
    without touching the experiment results themselves.
    """
    if not (getattr(args, "trace_out", None) or getattr(args, "metrics_out", None)):
        return
    from repro.harness.config import ScenarioSpec, observe_run

    variant = next((f.observed for f in _FIGURES if f.name == args.command), "det")
    app = getattr(args, "app", "brake")
    frames = getattr(args, "frames", None)
    frames = min(frames, 500) if frames is not None else None
    seed = getattr(args, "seed", 0) or 0
    scenario = _app_scenario(app, frames, _OBSERVED_FRAMES)
    observation, _ = observe_run(
        seed, ScenarioSpec(app=app, variant=variant, scenario=scenario)
    )
    label = f"observability: representative {variant}"
    _write_observation(
        observation,
        trace=(args.trace_out, f"{label} trace"),
        metrics=(args.metrics_out, f"{label} metrics"),
        file=sys.stderr,
    )


def _write_observation(
    observation, *, trace=(None, ""), metrics=(None, ""), file=None
) -> None:
    """Write one observed run's ``--trace-out``/``--metrics-out`` files.

    *trace* and *metrics* are ``(path, label)`` pairs; each file written
    is announced as ``<label> -> <path>`` on *file* (stdout by default).
    """
    from repro import obs

    for (path, label), write in (
        (trace, obs.write_trace),
        (metrics, obs.write_metrics),
    ):
        if path:
            write(observation, path)
            print(f"{label} -> {path}", file=file)


#: Every subcommand outside the figure table: its handler, and how
#: :func:`main` runs it — ``"plain"`` handlers take only the arguments;
#: ``"sweep"`` handlers also get a :class:`SweepRunner` built from the
#: sweep options, whose summary line goes to stderr afterwards;
#: ``"observed"`` ones then also honour ``--trace-out``/``--metrics-out``
#: with a representative run (``trace``, ``metrics`` and ``flows``
#: write those artifacts themselves).
_COMMANDS = {
    "bench-diff": (_run_bench_diff, "plain"),
    "serve": (_run_serve, "plain"),
    "submit": (_run_submit, "plain"),
    "worker": (_run_worker, "plain"),
    "status": (_run_status, "plain"),
    "report": (_run_report, "plain"),
    "library": (_run_library, "plain"),
    "trace": (_run_trace, "sweep"),
    "metrics": (_run_metrics, "sweep"),
    "flows": (_run_flows, "sweep"),
    "faults": (_run_faults, "observed"),
    "explore": (_run_explore, "observed"),
    "all": (_run_all, "observed"),
    **{
        figure.name: (partial(_run_figure, figure), "observed")
        for figure in _FIGURES
    },
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, mode = _COMMANDS[args.command]
    if mode == "plain":
        return handler(args)
    sweep = _make_sweep(args)
    code = handler(args, sweep)
    if mode == "observed":
        _export_observability(args)
    if sweep.stats.sweeps:
        print(sweep.stats.summary_line(), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
