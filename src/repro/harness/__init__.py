"""Experiment harness regenerating the paper's figures.

:mod:`repro.harness.figures` contains one driver per experiment of the
index in ``DESIGN.md`` (FIG1, FIG5, DET, TRADEOFF, ABLATE-SRC, OVERHEAD,
LET); each returns a result object with a ``render()`` method producing
the text form of the corresponding figure.  The benchmark suite under
``benchmarks/`` is a thin wrapper around these drivers.

:mod:`repro.harness.sweep` provides :class:`SweepRunner`, the parallel
seeded-sweep engine (process-pool fan-out, deterministic seed-order
merge) that the drivers, the CLI and the benchmarks all share, and
:class:`ResultStore`, the one on-disk result store that it and the
sweep service's coordinator both read and write.
"""

from repro.harness.benchdiff import compare_dirs, render_bench_diff
from repro.harness.config import NetworkSpec, ScenarioSpec, run_scenario_spec
from repro.harness.runner import env_int
from repro.harness.sweep import (
    ResultStore,
    SeedOutcome,
    SweepError,
    SweepResult,
    SweepRunner,
    SweepStats,
    code_fingerprint,
    driver_fingerprint,
    default_workers,
    make_record,
    merge_metric_snapshots,
    record_key,
)
from repro.harness import figures

__all__ = [
    "NetworkSpec",
    "ScenarioSpec",
    "run_scenario_spec",
    "env_int",
    "figures",
    "SweepRunner",
    "SweepResult",
    "SeedOutcome",
    "SweepStats",
    "SweepError",
    "ResultStore",
    "record_key",
    "make_record",
    "code_fingerprint",
    "driver_fingerprint",
    "default_workers",
    "merge_metric_snapshots",
    "compare_dirs",
    "render_bench_diff",
]
