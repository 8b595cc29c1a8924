"""Delta-debugging a failing schedule to a minimal preemption set.

A PCT-found failure typically carries more preemption points than the
bug needs (the strategy sprays ``depth`` of them).  Because an
:class:`~repro.explore.decisions.InterventionSchedule` is valid for
*any* subset of its points, classic ddmin (Zeller & Hildebrandt, 2002)
applies directly: split the point set into chunks, try each chunk and
each complement, keep whatever still reproduces, refine granularity
until 1-minimal — removing any single remaining point makes the
failure disappear.  The result reads as a diagnosis: "the frame drop
needs exactly these 2 preemptions".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.explore.decisions import InterventionSchedule, PreemptionPoint

if TYPE_CHECKING:  # deferred: explorer pulls in app code that imports us back
    from repro.explore.explorer import ExecutionOutcome, Explorer


@dataclass
class ShrinkResult:
    """Outcome of minimizing one failing schedule."""

    original: InterventionSchedule
    minimal: InterventionSchedule
    #: Experiment executions spent shrinking.
    trials: int
    #: (points tried, reproduced?) per trial, in order.
    history: list[tuple[int, bool]] = field(default_factory=list)
    #: Error counters of the minimal schedule's run.
    errors: dict[str, int] = field(default_factory=dict)

    @property
    def removed(self) -> int:
        return len(self.original.preemptions) - len(self.minimal.preemptions)


def _split(points: Sequence, n: int) -> list[list]:
    """*points* in n contiguous chunks (first chunks get the remainder)."""
    chunks = []
    start = 0
    for index in range(n):
        size = len(points) // n + (1 if index < len(points) % n else 0)
        if size:
            chunks.append(list(points[start : start + size]))
        start += size
    return chunks


def ddmin(items: Sequence, reproduces: Callable[[Sequence], bool]) -> list:
    """Classic ddmin over any subset-closed failure representation.

    *items* must already reproduce (callers check; this function does
    not re-run the full set).  Returns a 1-minimal sublist: removing any
    single remaining item makes ``reproduces`` return ``False``.  Used
    for preemption points (scheduler schedules) and fired-fault records
    (fault traces) alike — both are valid for every subset.
    """
    points = list(items)
    granularity = 2
    while len(points) >= 2:
        chunks = _split(points, granularity)
        reduced = False
        for chunk in chunks:
            if len(chunk) < len(points) and reproduces(chunk):
                points, granularity, reduced = chunk, 2, True
                break
        if not reduced:
            for chunk in chunks:
                complement = [p for p in points if p not in chunk]
                if complement and reproduces(complement):
                    points = complement
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
        if not reduced:
            if granularity >= len(points):
                break
            granularity = min(len(points), granularity * 2)
    return points


def shrink_schedule(
    explorer: Explorer,
    schedule: InterventionSchedule,
    predicate: Callable[[ExecutionOutcome], bool] | None = None,
) -> ShrinkResult:
    """ddmin *schedule*'s preemption points under *explorer*'s experiment.

    *predicate* defaults to :func:`repro.explore.explorer.frame_drop`.
    Raises :class:`ValueError` if the full schedule does not reproduce
    the failure (nothing to shrink from).
    """
    from repro.explore.explorer import frame_drop

    if predicate is None:
        predicate = frame_drop
    history: list[tuple[int, bool]] = []
    # The last reproducing probe.  ddmin only ever keeps a reproducing
    # point set, so once it returns this is the run of the minimal
    # schedule: its errors and thread names are the minimal schedule's.
    last: ExecutionOutcome | None = None

    def reproduces(points: Sequence[PreemptionPoint]) -> bool:
        nonlocal last
        # Probes share long prefixes by construction (ddmin removes
        # points, it never adds them), so an explorer with a snapshot
        # engine forks each probe from the deepest matching holder.
        outcome = explorer.evaluate(schedule.with_points(points))
        ok = predicate(outcome)
        history.append((len(points), ok))
        if ok:
            last = outcome
        return ok

    if not reproduces(schedule.preemptions):
        raise ValueError(
            f"schedule does not reproduce the failure: {schedule.describe()}"
        )

    ddmin(schedule.preemptions, reproduces)
    return ShrinkResult(
        original=schedule,
        minimal=replace(last.schedule, label="shrunk"),
        trials=len(history),
        history=history,
        errors=last.errors,
    )
