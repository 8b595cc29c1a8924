"""Delta-debugging a failing fault trace to a minimal fault set.

A fault sweep that breaks an invariant ("DEAR fingerprints diverged",
"a frame was dropped end-to-end") usually fires far more faults than
the failure needs.  Because replaying a fault trace answers every
decision from a ``(stream, kind, flow, index)`` table — and the PRF
decisions of non-replayed sites never shift — **any subset** of the
fired records is itself a valid fault schedule.  That is exactly the
subset-closure classic ddmin requires, so the same
:func:`repro.explore.shrink.ddmin` that minimizes preemption schedules
minimizes fault traces: the result reads "the divergence needs exactly
these 2 dropped frames".

:func:`fault_sweep` is ``repro faults``: both variants of one spec
under its fault plan, DEAR's cross-seed trace identity, and seed 0's
fired faults triaged to the decisive subset by this ddmin.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.explore.decisions import DecisionRecord, DecisionTrace
from repro.explore.shrink import ddmin
from repro.faults.injector import replay
from repro.faults.plan import FaultPlan

__all__ = ["FaultShrinkResult", "fault_sweep", "shrink_fault_trace"]


@dataclass
class FaultShrinkResult:
    """Outcome of minimizing one failing fault trace."""

    original: DecisionTrace
    minimal: DecisionTrace
    #: Experiment executions spent shrinking.
    trials: int
    #: (faults tried, reproduced?) per trial, in order.
    history: list[tuple[int, bool]] = field(default_factory=list)

    @property
    def removed(self) -> int:
        return len(self.original.records) - len(self.minimal.records)

    def describe(self) -> str:
        kept = ", ".join(
            f"{r.kind} {r.name}#{r.bound}" for r in self.minimal.records
        ) or "nothing"
        return (
            f"shrunk {len(self.original.records)} fired fault(s) to "
            f"{len(self.minimal.records)} in {self.trials} trial(s): {kept}"
        )


def shrink_fault_trace(
    plan: FaultPlan,
    trace: DecisionTrace,
    failure: Callable[[DecisionTrace], bool],
    *,
    snapshots=None,
) -> FaultShrinkResult:
    """ddmin *trace*'s fired faults under *failure*.

    *failure* is called as ``failure(candidate)`` inside
    ``replay(candidate)`` (:func:`repro.faults.replay`): it runs the
    experiment, whose fault plan *plan* then replays the candidate
    subset, and reports whether the observed problem still reproduces.
    Its verdict must depend only on the run's outcome.  Raises
    :class:`ValueError` if the full trace does not reproduce (nothing
    to shrink from).

    With *snapshots* (an active :class:`repro.snapshot.SnapshotEngine`),
    probes are keyed by their membership bits over *trace*'s records —
    a record's membership cannot affect the run before its own firing
    site, so probes agreeing on records < k share bit-identical state up
    to record k and fork from copy-on-write holders instead of
    replaying from t=0.  The replay then also carries *trace* as the
    decision universe and the engine's checkpointer, so *failure* needs
    no snapshot plumbing.
    """
    history: list[tuple[int, bool]] = []
    engine = snapshots
    if engine is not None and not engine.active:
        engine = None
    universe = list(trace.records)
    if engine is not None:
        from repro.harness.sweep import code_fingerprint
        from repro.snapshot import context_key

        context = context_key(
            "fault-shrink",
            repr(plan),
            trace.base_seed,
            trace.experiment,
            code_fingerprint(),
        )

    def as_trace(records: Sequence[DecisionRecord]) -> DecisionTrace:
        return replace(trace, records=list(records))

    def probe(candidate: DecisionTrace, checkpointer=None) -> bool:
        with replay(
            candidate,
            universe=None if checkpointer is None else trace,
            checkpointer=checkpointer,
        ):
            return failure(candidate)

    def reproduces(records: Sequence[DecisionRecord]) -> bool:
        candidate = as_trace(records)
        if engine is not None:
            from repro.snapshot import MembershipDecisions

            member = {id(record) for record in records}
            bits = tuple(1 if id(record) in member else 0 for record in universe)
            ok = engine.execute(
                context,
                MembershipDecisions(bits),
                lambda checkpointer: probe(candidate, checkpointer),
            )
        else:
            ok = probe(candidate)
        history.append((len(records), ok))
        return ok

    records = list(trace.records)
    if not reproduces(records):
        raise ValueError("fault trace does not reproduce the failure")

    minimal = ddmin(records, reproduces)
    return FaultShrinkResult(
        original=trace,
        minimal=as_trace(minimal),
        trials=len(history),
        history=history,
    )


def _signature(run) -> tuple:
    """A run's logical-trace fingerprints, comparable across runs."""
    return tuple(sorted(run.trace_fingerprints.items()))


def _triage(spec, det_runs: list, plan: FaultPlan):
    """Minimize seed 0's fired faults to the decisive subset.

    ddmin over the fired-fault trace, with every probe forked from the
    deepest copy-on-write snapshot whose membership prefix matches —
    answering "which of the faults that fired actually changed the
    outcome?" without paying a full re-run per probe.  Returns a
    :class:`~repro.analysis.report.Report` (its document is the
    fault-sweep report's ``snapshots`` block), or ``None`` when there is
    nothing to triage (no faults fired, outcome unchanged, or no
    ``os.fork``).
    """
    from repro.analysis.report import Report
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
    with replay(replace(trace, records=[])):
        clean = _signature(run_scenario_spec(seed, spec))
    if clean == _signature(run0):
        return None  # the fired faults left no observable mark

    def failure(_candidate):
        return _signature(run_scenario_spec(seed, spec)) != clean

    engine = SnapshotEngine()
    try:
        shrunk = shrink_fault_trace(plan, trace, failure, snapshots=engine)
    except ValueError:
        return None  # full-trace replay did not reproduce; don't guess
    finally:
        engine.close()
    return Report(
        f"snapshot triage (seed {seed}): {shrunk.describe()}\n"
        f"  {engine.stats.describe()}",
        {
            "seed": seed,
            "fired": len(trace.records),
            "trials": shrunk.trials,
            "minimal": shrunk.minimal.to_dict(),
            "summary": shrunk.describe(),
            "stats": engine.stats.as_dict(),
        },
    )


def fault_sweep(spec, sweep=None, *, triage: bool):
    """``repro faults``: *spec*'s seeds in both variants under its faults.

    Runs the DEAR and stock variants under the same fault plan.
    In-bound faults must leave DEAR's logical traces identical across
    world seeds (*spec*'s scenario runs with its app's fixed-inputs
    knob set); divergence is acceptable only when the runtime flags it
    (STP violations, deadline misses).  With *triage*, seed 0's fired
    faults are shrunk to the decisive subset.
    Returns a :class:`~repro.analysis.report.Report` whose document is
    the ``fault-sweep-report/v1`` and whose exit code is 1 on silent
    DEAR divergence.
    """
    from repro.analysis.report import Report, render_table
    from repro.harness.sweep import SweepRunner

    sweep = sweep or SweepRunner()
    # The cross-seed trace-identity check needs seed-fixed inputs: the
    # deterministic camera for brake, the library analogue (calm hosts,
    # constant latencies, no input jitter) otherwise.
    definition = spec.definition()
    spec = replace(
        spec, variant="det", scenario=definition.with_fixed_inputs(spec.scenario)
    )
    # Library apps may carry their fault plan in the scenario itself
    # (e.g. failover's primary outage); report whatever actually runs.
    plan = spec.effective_faults() or FaultPlan(label="none")
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
    fingerprints = {_signature(run) for run in det_runs}
    det_deterministic = len(fingerprints) == 1
    flagged = sum(run.stp_violations + run.deadline_misses for run in det_runs)
    stock_outcomes = {tuple(sorted(run.commands.items())) for run in nondet_runs}
    lines = [
        plan.describe(),
        render_table(
            ["seed", "faults fired", "drops", "errors", "STP violations",
             "deadline misses"],
            rows,
            title="FAULTS - DEAR under the fault plan:",
        ),
        f"DEAR logical traces identical across {len(det_runs)} seeds: "
        f"{det_deterministic} (flagged violations: {flagged})",
        f"stock outcomes across {len(nondet_runs)} seeds: "
        f"{len(stock_outcomes)} distinct",
    ]
    triaged = _triage(spec, det_runs, plan) if triage else None
    if triaged is not None:
        lines.append(triaged.render())

    silent_divergence = not det_deterministic and flagged == 0
    document = {
        "format": "fault-sweep-report/v1",
        "plan": plan.to_dict(),
        "spec": spec.to_dict(),
        "det": {
            "deterministic": det_deterministic,
            "distinct_fingerprints": len(fingerprints),
            "flagged_violations": flagged,
            "fingerprints": {
                str(run.seed): dict(run.trace_fingerprints) for run in det_runs
            },
            "fault_summaries": {str(run.seed): run.fault_summary for run in det_runs},
        },
        "stock": {
            "distinct_outcomes": len(stock_outcomes),
            "errors": {str(run.seed): run.errors.as_dict() for run in nondet_runs},
        },
        "silent_divergence": silent_divergence,
        "snapshots": None if triaged is None else triaged.to_dict(),
    }
    return Report("\n".join(lines), document, 1 if silent_divergence else 0)
