"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro fig5 --runs 20 --frames 2000 --workers 8
    python -m repro det --spec spec.json      # any subcommand from a spec
    python -m repro explore --strategy pct --shrink --record trace.json
    python -m repro explore --replay trace.json
    python -m repro trace det --trace-out trace.json      # Perfetto timeline
    python -m repro faults --drop 0.05 --partition 800:1200 --out report.json
    python -m repro flows --app fusion --seeds 3 --out flows.json
    python -m repro serve --port 8765 --local-workers 2   # sweep service
    python -m repro submit --spec spec.json --wait        # run a campaign

Each subcommand parses its flags, makes one library call and renders
the result: a figure driver's (rows of :data:`_FIGURES`), or the
:class:`~repro.analysis.report.Report` of
:func:`~repro.explore.explore_app`, :func:`~repro.faults.fault_sweep`,
:func:`~repro.obs.flow_sweep` or :func:`~repro.obs.metrics_sweep`,
whose ``to_dict()`` is the ``--out`` JSON.  Per-app scenario policy
lives in :class:`~repro.apps.AppDefinition`.  Sweeps run on one
:class:`~repro.harness.sweep.SweepRunner` (``--workers``, result cache
under ``.repro_cache/``) whose throughput summary goes to stderr.
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


def _write_json(path: str, document, what: str | None = None) -> None:
    """Write *document* as sorted, indented JSON; announce it as *what*."""
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    if what:
        print(f"{what} -> {path}")


def _emit(report, out: str | None = None, what: str = "") -> None:
    """Print *report* (its notes to stderr) and write its ``to_dict()``
    document to *out*, if given."""
    print(report.render())
    if report.notes:
        print(report.notes, file=sys.stderr)
    if out:
        _write_json(out, report.to_dict(), what)


def _load_spec(args: argparse.Namespace):
    """The :class:`ScenarioSpec` named by ``--spec``, or ``None``."""
    if not args.spec:
        return None
    from repro.harness.config import ScenarioSpec

    return ScenarioSpec.load(args.spec)


def _app_spec(app: str, variant: str, frames, default_frames: int, **fields):
    """*app*'s spec at *frames* (see :meth:`AppDefinition.scenario`)."""
    from repro import apps
    from repro.harness.config import ScenarioSpec

    scenario = apps.get(app).scenario(frames, default_frames)
    return ScenarioSpec(app=app, variant=variant, scenario=scenario, **fields)


def _observe(seed: int, spec, trace, metrics=(None, ""), *, flows=False, file=None):
    """Observe *seed* of *spec* and write ``(path, label)`` *trace* and
    *metrics* (nothing runs without a path), announcing each file as
    ``<label> -> <path>`` on *file*; labels may name the run's ``seed``,
    ``variant``, ``events`` and ``tracks``.  Returns the run's result."""
    if not (trace[0] or metrics[0]):
        return None
    from repro import obs
    from repro.harness.config import observe_run

    observation, result = observe_run(seed, spec, flows=flows)
    bus = observation.bus
    fields = dict(seed=seed, variant=spec.variant, events=len(bus), tracks=bus.tracks())
    writers = (obs.write_trace, obs.write_metrics)
    for (path, label), write in zip((trace, metrics), writers):
        if path:
            write(observation, path)
            print(f"{label.format(**fields)} -> {path}", file=file)
    return result


def _observe_representative(args: argparse.Namespace) -> None:
    """``--trace-out``/``--metrics-out`` of the other sweep subcommands: one
    observed run of the app (nondet for the stock-AP figures, det else)."""
    if not (args.trace_out or args.metrics_out):
        return
    variant = next((f.observed for f in _FIGURES if f.name == args.command), "det")
    frames = getattr(args, "frames", None)
    spec = _app_spec(
        getattr(args, "app", "brake"), variant,
        None if frames is None else min(frames, 500), _OBSERVED_FRAMES,
    )
    label = f"observability: representative {variant}"
    _observe(
        getattr(args, "seed", 0) or 0, spec, (args.trace_out, f"{label} trace"),
        (args.metrics_out, f"{label} metrics"), file=sys.stderr,
    )


def _run_figure(figure: _Figure, args: argparse.Namespace, sweep) -> int:
    """One figure/extension subcommand: print the driver's rendering."""
    print(figure.render(vars(args), sweep, _load_spec(args)))
    _observe_representative(args)
    return 0


def _run_all(args: argparse.Namespace, sweep) -> int:
    """``repro all``: every table row at its default (or quick) sizes."""
    for figure in _FIGURES:
        started = time.time()
        print(f"==== {figure.name} " + "=" * (60 - len(figure.name)))
        print(figure.render(figure.defaults(args.quick), sweep, None))
        print(f"---- {figure.name} done in {time.time() - started:.1f}s\n")
    _observe_representative(args)
    return 0


def _run_explore(args: argparse.Namespace, sweep) -> int:
    """``repro explore``: search, shrink, record, verify; or ``--replay``."""
    from repro.explore.explorer import explore_app, replay_recorded
    from repro.time import MS

    if args.replay:
        report = replay_recorded(args.replay, args.app, args.frames)
    else:
        report = explore_app(
            args.app, strategy=args.strategy, budget=args.budget, frames=args.frames,
            seed=args.seed, depth=args.depth, preempt_ns=int(args.max_preempt_ms * MS),
            shrink=args.shrink, record=args.record, schedule_out=args.schedule_out,
            verify=args.verify, sweep=sweep, snapshots=args.snapshot,
        )
    _emit(report)
    _observe_representative(args)
    return report.exit_code


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
        if end_ms < start_ms:
            raise SystemExit(
                f"--partition expects START_MS <= END_MS, got {window!r}"
            )
        partitions.append(
            Partition(start_ns=int(start_ms * MS), end_ns=int(end_ms * MS))
        )
    rates = {
        "drop": args.drop or 0.0, "duplicate": args.duplicate,
        "reorder": args.reorder, "corrupt": args.corrupt, "spike": args.spike,
    }
    quick = partitions or any(p > 0.0 for p in rates.values())
    if not quick and (spec is not None or definition.library):
        return None
    if args.drop is None:
        rates["drop"] = 0.0 if definition.library else _BRAKE_DROP
    return FaultPlan.camera_faults(
        seed=args.fault_seed, spike_ns=int(args.spike_ms * MS),
        partitions=tuple(partitions), label="cli-faults", **rates,
    )


def _run_faults(args: argparse.Namespace, sweep) -> int:
    """``repro faults``: seeded fault sweep + DEAR determinism check.

    Runs both variants under the same fault plan with seed-fixed inputs
    (:func:`repro.faults.fault_sweep`), from ``--spec`` or the flags.
    In-bound faults must leave DEAR's logical traces identical across
    world seeds; divergence is acceptable only when flagged by the
    runtime (STP violations / deadline faults).  Silent divergence
    writes a counterexample artifact and exits nonzero.
    """
    from repro import apps
    from repro.faults.shrink import fault_sweep

    spec = _load_spec(args)
    definition = apps.get(spec.app if spec is not None else args.app)
    plan = _faults_plan(args, definition, spec)
    if spec is None:
        spec = _app_spec(
            definition.name, "det", args.frames, args.brake_frames,
            seeds=range(args.seeds), faults=plan,
            label=definition.qualified("faults", "det"),
        )
        scenario = replace(spec.scenario, late_policy=args.late_policy)
        spec = replace(spec, scenario=scenario)
    elif plan is not None:
        spec = replace(spec, faults=plan)
    report = fault_sweep(spec, sweep, triage=args.snapshot)
    _emit(report, args.out, "fault-sweep report")
    if report.exit_code:
        _write_json(args.counterexample_out, report.to_dict())
        print(
            "FAULTS: silent DEAR divergence under in-bound faults; "
            f"counterexample -> {args.counterexample_out}",
            file=sys.stderr,
        )
    _observe_representative(args)
    return report.exit_code


def _run_flows(args: argparse.Namespace, sweep) -> int:
    """``repro flows``: causal flow sweep with a stock-vs-DEAR diff.

    The sweep and its report are :func:`repro.obs.flow_sweep`; with
    ``--trace-out``/``--metrics-out`` the first seed of the first
    variant is also observed, at most :data:`_OBSERVED_FRAMES` frames.
    """
    from repro import apps
    from repro.obs.export import flow_sweep

    spec = _load_spec(args)
    definition = apps.get(spec.app if spec is not None else args.app)
    plan = None
    if spec is None and args.drop > 0.0:
        if definition.library:
            raise SystemExit(
                "flows: --drop targets the brake camera flow; use "
                "--spec with a fault plan for library apps"
            )
        from repro.faults import FaultPlan

        plan = FaultPlan.camera_faults(
            seed=args.fault_seed, drop=args.drop, label="cli-flows"
        )
    variants = (
        ("det", "nondet") if args.variant == "both" else (args.variant,)
    )
    for variant in variants:
        if variant not in definition.variants():
            raise SystemExit(
                f"flows: app {definition.name!r} has no variant {variant!r}; "
                f"known: {list(definition.variants())}"
            )
    seeds = list(spec.seeds) if spec is not None else list(range(args.seeds))
    base = spec or _app_spec(
        definition.name, variants[0], args.frames, args.brake_frames, faults=plan
    )
    report = flow_sweep(base, seeds, variants, sweep, keyed_by_spec=spec is not None)
    _emit(report, args.out, "flow-sweep report")
    frames = min(base.scenario.n_frames, _OBSERVED_FRAMES)
    observed = replace(
        base, variant=variants[0], scenario=replace(base.scenario, n_frames=frames)
    )
    _observe(
        seeds[0] if seeds else 0, observed,
        (args.trace_out, "flow trace (seed {seed}, {variant})"),
        (args.metrics_out, "flow metrics"), flows=True, file=sys.stderr,
    )
    return 0


def _run_trace(args: argparse.Namespace, _sweep) -> int:
    """``repro trace det|nondet``: one observed run -> Perfetto JSON."""
    spec = _app_spec(args.app, args.experiment, args.frames, args.brake_frames)
    label = "trace: {events} events on tracks {tracks}"
    trace = (args.trace_out or "trace.json", label)
    result = _observe(args.seed, spec, trace, (args.metrics_out, "metrics"))
    errors = {k: v for k, v in result.errors.as_dict().items() if v}
    print(
        f"run: {args.app} {args.experiment}, seed {args.seed}, "
        f"{spec.scenario.n_frames} frames, errors: {errors or 'none'}"
    )
    return 0


def _run_metrics(args: argparse.Namespace, sweep) -> int:
    """``repro metrics det|nondet``: cross-seed metric aggregates."""
    from repro.obs.export import metrics_sweep

    spec = _app_spec(args.app, args.experiment, args.frames, args.brake_frames)
    report = metrics_sweep(spec, range(args.seeds), sweep)
    _emit(report, args.metrics_out, "metrics aggregate")
    _observe(0, spec, (args.trace_out, "representative trace (seed 0)"))
    return 0


def _run_serve(args: argparse.Namespace, _sweep=None) -> int:
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
        done = service.serve_until(args.campaigns)
        print(f"served {done} campaign(s); shutting down", flush=True)
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        service.close()
    return 0


def _run_submit(args: argparse.Namespace, _sweep=None) -> int:
    """``repro submit``: one campaign in, (optionally) one merged result out."""
    from repro.harness.config import ScenarioSpec
    from repro.service import HttpClient, result_report

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
    report = result_report(client.wait(campaign, timeout_s=args.timeout))
    _emit(report, args.out, "result")
    if args.report_out:
        _write_json(args.report_out, client.report(campaign), "report")
    return report.exit_code


def _run_worker(args: argparse.Namespace, _sweep=None) -> int:
    """``repro worker``: join a coordinator's fleet from this host."""
    from repro.obs import fleet
    from repro.service import HttpClient, Worker

    fleet.enable()
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


def _run_status(args: argparse.Namespace, _sweep=None) -> int:
    """``repro status [campaign] [--watch]``: live campaign status."""
    from repro.service import status_table

    client, campaign = _campaign_client(args)
    while True:
        status = client.status(campaign)
        table = status_table(status, client.report(campaign))
        if args.watch:
            # Clear + home, like `watch(1)`, so the table refreshes in
            # place on any ANSI terminal.
            print(f"\x1b[2J\x1b[H{table}", flush=True)
        else:
            print(table)
        if not args.watch or status["status"] == "done":
            return 0
        time.sleep(max(0.05, args.interval))


def _run_report(args: argparse.Namespace, _sweep=None) -> int:
    """``repro report [campaign]``: post-mortem + optional fleet trace."""
    from repro.obs import fleet, write_trace
    from repro.service import campaign_report

    client, campaign = _campaign_client(args)
    report = client.report(campaign)
    _emit(campaign_report(report), args.out, "report")
    if args.trace_out:
        bus = fleet.fleet_trace_bus(report)
        path = write_trace(bus, args.trace_out, **fleet.fleet_trace_labels(report))
        # The bus's events plus one process and one thread record per track.
        events = len(bus) + 1 + len(bus.tracks())
        print(f"fleet trace: {events} event(s) -> {path}")
    return 0


def _run_bench_diff(args: argparse.Namespace, _sweep=None) -> int:
    """``repro bench-diff``: the perf-trajectory gate."""
    from repro.harness.benchdiff import compare_dirs, render_bench_diff

    from repro.analysis.report import Report

    report = compare_dirs(
        args.baseline_dir,
        args.current_dir,
        tolerance=args.tolerance,
        gate_fields=args.gate_fields,
        only=args.only,
    )
    _emit(Report(render_bench_diff(report), report), args.out, "bench-diff report")
    if args.strict and report["summary"]["fail"]:
        print(
            f"bench-diff: {report['summary']['fail']} regression(s) beyond "
            f"tolerance {args.tolerance}",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_library(args: argparse.Namespace, _sweep=None) -> int:
    """``repro library``: list the registered applications."""
    import json

    from repro.analysis.report import app_library

    report = app_library()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


#: Every subcommand's handler, called as ``handler(args, sweep)``; the
#: sweep is ``None`` for subcommands without the sweep options.
_COMMANDS = {
    "bench-diff": _run_bench_diff,
    "serve": _run_serve,
    "submit": _run_submit,
    "worker": _run_worker,
    "status": _run_status,
    "report": _run_report,
    "library": _run_library,
    "trace": _run_trace,
    "metrics": _run_metrics,
    "flows": _run_flows,
    "faults": _run_faults,
    "explore": _run_explore,
    "all": _run_all,
    **{figure.name: partial(_run_figure, figure) for figure in _FIGURES},
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Subcommands with the sweep options share one runner and report
    # its throughput; the service clients, bench-diff and library get none.
    sweep = None
    if "workers" in args:
        from repro.harness.sweep import SweepRunner

        sweep = SweepRunner(
            workers=args.workers,
            use_cache=False if args.no_cache else None,
            force=args.force,
            cache_dir=args.cache_dir,
        )
    code = _COMMANDS[args.command](args, sweep)
    if sweep is not None and sweep.stats.sweeps:
        print(sweep.stats.summary_line(), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
