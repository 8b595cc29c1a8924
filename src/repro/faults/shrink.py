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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.explore.decisions import DecisionRecord, DecisionTrace
from repro.explore.shrink import ddmin
from repro.faults.injector import replay
from repro.faults.plan import FaultPlan

__all__ = ["FaultShrinkResult", "shrink_fault_trace"]


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
    context: str = "",
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
    no snapshot plumbing.  *context* overrides the engine cache key
    (everything outside the membership bits).
    """
    history: list[tuple[int, bool]] = []
    engine = snapshots
    if engine is not None and not engine.active:
        engine = None
    universe = list(trace.records)
    if engine is not None and not context:
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
