"""Experiment harness regenerating the paper's figures.

:mod:`repro.harness.figures` contains one driver per experiment of the
index in ``DESIGN.md`` (FIG1, FIG5, DET, TRADEOFF, ABLATE-SRC, OVERHEAD,
LET); each returns a result object with a ``render()`` method producing
the text form of the corresponding figure.  The benchmark suite under
``benchmarks/`` is a thin wrapper around these drivers.

``figures`` is a plain submodule (``from repro.harness import
figures``), not imported here, so a run that only needs
:class:`ScenarioSpec` or :class:`SweepRunner` loads neither the figure
code, its statistics nor numpy; nor does it load the bench-diff gate
(import that from :mod:`repro.harness.benchdiff`).

:mod:`repro.harness.sweep` provides :class:`SweepRunner`, the parallel
seeded-sweep engine (process-pool fan-out, deterministic seed-order
merge) that the drivers, the CLI and the benchmarks all share, and
:class:`ResultStore`, the one on-disk result store that it and the
sweep service's coordinator both read and write.
"""

from repro.harness.config import (
    NetworkSpec,
    ScenarioSpec,
    flow_summary,
    observe_run,
    run_scenario_spec,
)
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
    record_key,
)

__all__ = [
    "NetworkSpec",
    "ScenarioSpec",
    "run_scenario_spec",
    "observe_run",
    "flow_summary",
    "env_int",
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
]
