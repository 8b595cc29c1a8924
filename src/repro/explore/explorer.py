"""The budgeted exploration loop.

An :class:`Explorer` owns one target experiment (the stock brake
assistant by default), a base seed, a scenario and a strategy.  It
first *calibrates* — one baseline run counting the dispatch horizon —
then evaluates schedules ``strategy.schedule_for(0..budget-1)`` until
the failure predicate fires or the budget is exhausted.

Without a snapshot engine, executions are independent, so they fan out
over the :class:`repro.harness.sweep.SweepRunner` process pool in
chunks (with early exit between chunks) and per-execution outcomes
land in the sweep result cache like any other seeded experiment.  With
an active engine, :meth:`Explorer.evaluate` runs them one at a time,
each forked from the deepest shared-prefix holder, and the loop stops
at the first failure.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterator

from repro.apps.brake.nondet import run_nondet_brake_assistant
from repro.explore.decisions import (
    DecisionTrace,
    InterventionSchedule,
    PreemptionPoint,
    ScheduleRecorder,
)
from repro.explore.strategies import PctStrategy
from repro.harness.sweep import SweepRunner
from repro.sim.rng import stream_hooks


@dataclass
class ExecutionOutcome:
    """One explored schedule and what it produced."""

    index: int
    schedule: InterventionSchedule
    errors_total: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    #: Captured traceback if the execution itself crashed.
    error: str | None = None


def frame_drop(outcome: ExecutionOutcome) -> bool:
    """Default failure predicate: the run dropped or misaligned frames."""
    return outcome.errors_total > 0


@dataclass
class ExplorationResult:
    """Everything one exploration produced."""

    strategy: str
    budget: int
    horizon: int
    executions: list[ExecutionOutcome]
    #: First failing execution (``None`` if the budget ran dry).
    found: ExecutionOutcome | None = None
    #: :class:`repro.snapshot.SnapshotStats` when the exploration ran
    #: through the snapshot/fork engine (``None`` otherwise).
    snapshots: Any = None

    @property
    def executions_used(self) -> int:
        """Executions evaluated up to and including the first failure."""
        if self.found is not None:
            return self.found.index + 1
        return len(self.executions)


def _summarize(result: Any, controller: Any) -> dict:
    """Compact, picklable summary of one schedule evaluation."""
    applied = [
        {"site": p.site, "delay_ns": p.delay_ns, "thread": p.thread}
        for p in controller.applied
    ]
    return {
        "errors_total": result.errors.total(),
        "errors": result.errors.as_dict(),
        "applied": applied,
    }


def _outcome(
    index: int, schedule: InterventionSchedule, summary: dict
) -> ExecutionOutcome:
    """Decode a :func:`_summarize` summary; the outcome's schedule
    carries the thread each of its points actually hit."""
    applied = {
        p["site"]: PreemptionPoint(p["site"], p["delay_ns"], p["thread"])
        for p in summary["applied"]
    }
    return ExecutionOutcome(
        index,
        schedule.with_points(
            applied.get(point.site, point) for point in schedule.preemptions
        ),
        errors_total=summary["errors_total"],
        errors=dict(summary["errors"]),
    )


def _run(experiment, scenario, schedule, *hooks, checkpointer=None):
    """Run *experiment* once under *schedule*, returning ``(result,
    controller)``.  Extra stream *hooks* (a recorder) see the same
    run; *checkpointer* (from :meth:`repro.snapshot.SnapshotEngine.execute`)
    lets the controller capture copy-on-write holders at planned sites.
    """
    controller = schedule.controller(checkpointer=checkpointer)
    with stream_hooks(controller, *hooks):
        result = experiment(schedule.base_seed, scenario)
    return result, controller


def _run_summary(
    execution: int,
    *,
    experiment: Callable[..., Any],
    scenario: Any,
    strategy: Any,
    base_seed: int,
    horizon: int,
) -> dict:
    """Pooled worker body: evaluate one schedule, return a compact
    summary (picklable for the sweep pool)."""
    schedule = strategy.schedule_for(execution, base_seed, horizon)
    return _summarize(*_run(experiment, scenario, schedule))


class Explorer:
    """Search scheduler interleavings for a failure.

    ``experiment`` must be a picklable ``(seed, scenario) -> result``
    callable whose result exposes ``errors`` counters (both brake
    assistant variants qualify).
    """

    def __init__(
        self,
        experiment: Callable[..., Any] = run_nondet_brake_assistant,
        scenario: Any = None,
        base_seed: int = 0,
        strategy: Any = None,
        sweep: SweepRunner | None = None,
        predicate: Callable[[ExecutionOutcome], bool] = frame_drop,
        snapshots: Any = None,
    ) -> None:
        self.experiment = experiment
        self.scenario = scenario
        self.base_seed = base_seed
        self.strategy = strategy or PctStrategy()
        self.sweep = sweep or SweepRunner()
        self.predicate = predicate
        if snapshots is not None and not snapshots.active:
            snapshots = None
        #: Active :class:`repro.snapshot.SnapshotEngine` or ``None``:
        #: with one, explore/shrink executions fork from the deepest
        #: shared-prefix holder instead of replaying from t=0.
        self.snapshots = snapshots
        self._horizon: int | None = None

    # -- running one schedule ----------------------------------------------

    def run_schedule(self, schedule: InterventionSchedule, checkpointer=None):
        """Run the experiment once under *schedule* (in-process).

        *checkpointer* comes from the snapshot engine (see :func:`_run`).
        """
        return _run(
            self.experiment, self.scenario, schedule, checkpointer=checkpointer
        )

    def _snapshot_context(self, base_seed: int) -> str:
        """The engine context: everything outside the decision vector.

        Includes the schedule's own base seed — two schedules with
        different world seeds never share state, whatever their
        preemption prefixes look like.
        """
        from repro.harness.sweep import code_fingerprint
        from repro.snapshot import context_key

        return context_key(
            "explore",
            getattr(self.experiment, "__name__", repr(self.experiment)),
            repr(self.scenario),
            base_seed,
            code_fingerprint(),
        )

    def evaluate(
        self, schedule: InterventionSchedule, index: int = -1
    ) -> ExecutionOutcome:
        """Run *schedule* once and return its outcome, its points
        annotated with the threads they hit.

        With :attr:`snapshots`, the run forks from the deepest holder
        whose captured decision prefix matches the schedule
        (cold-running and capturing along the way on a miss); an
        exception inside the run then re-raises as
        :class:`repro.snapshot.RemoteRunError`.
        """

        def run(checkpointer=None) -> dict:
            return _summarize(*self.run_schedule(schedule, checkpointer))

        if self.snapshots is None:
            summary = run()
        else:
            from repro.snapshot import ScheduleDecisions

            summary = self.snapshots.execute(
                self._snapshot_context(schedule.base_seed),
                ScheduleDecisions(schedule),
                run,
            )
        return _outcome(index, schedule, summary)

    def record(
        self, schedule: InterventionSchedule
    ) -> tuple[Any, DecisionTrace]:
        """Run *schedule* while recording the full decision trace."""
        recorder = ScheduleRecorder(base_seed=schedule.base_seed)
        result, _controller = _run(self.experiment, self.scenario, schedule, recorder)
        recorder.trace.experiment = getattr(
            self.experiment, "__name__", repr(self.experiment)
        )
        recorder.trace.params = {"schedule": schedule.to_dict()}
        return result, recorder.trace

    # -- calibration --------------------------------------------------------

    @property
    def horizon(self) -> int:
        """Dispatch count of the baseline run (preemption-site space)."""
        if self._horizon is None:
            baseline = InterventionSchedule(base_seed=self.base_seed)
            _result, controller = self.run_schedule(baseline)
            self._horizon = controller._site
        return self._horizon

    # -- the exploration loop ----------------------------------------------

    def explore(self, budget: int = 40) -> ExplorationResult:
        """Evaluate up to *budget* schedules; stop at the first failure."""
        horizon = self.horizon
        outcomes: list[ExecutionOutcome] = []
        found: ExecutionOutcome | None = None
        for outcome in self._outcomes(budget, horizon):
            outcomes.append(outcome)
            if outcome.error is None and self.predicate(outcome):
                found = outcome
                break
        return ExplorationResult(
            strategy=self.strategy.name,
            budget=budget,
            horizon=horizon,
            executions=outcomes,
            found=found,
            snapshots=self.snapshots.stats if self.snapshots is not None else None,
        )

    def _outcomes(self, budget: int, horizon: int) -> Iterator[ExecutionOutcome]:
        """Outcomes of executions ``0..budget-1`` in order, lazily.

        Forked: one :meth:`evaluate` per item, so the caller's early
        exit saves every later execution.  Pooled: chunks of
        ``max(workers, 4)`` through the cached sweep.
        """
        if self.snapshots is not None:
            from repro.snapshot import RemoteRunError

            for index in range(budget):
                schedule = self.strategy.schedule_for(index, self.base_seed, horizon)
                try:
                    outcome = self.evaluate(schedule, index)
                except RemoteRunError as exc:
                    outcome = ExecutionOutcome(index, schedule, error=str(exc))
                except Exception:
                    outcome = ExecutionOutcome(
                        index, schedule, error=traceback.format_exc()
                    )
                yield outcome
            return

        runner = partial(
            _run_summary,
            experiment=self.experiment,
            scenario=self.scenario,
            strategy=self.strategy,
            base_seed=self.base_seed,
            horizon=horizon,
        )
        params = {
            "experiment": getattr(self.experiment, "__name__", repr(self.experiment)),
            "scenario": repr(self.scenario),
            "strategy": repr(self.strategy),
            "base_seed": self.base_seed,
            "horizon": horizon,
        }
        chunk = max(self.sweep.workers, 4)
        for start in range(0, budget, chunk):
            indices = list(range(start, min(start + chunk, budget)))
            batch = self.sweep.run(
                runner, indices, name=f"explore-{self.strategy.name}", params=params
            )
            for index, seed_outcome in zip(indices, batch.outcomes):
                schedule = self.strategy.schedule_for(index, self.base_seed, horizon)
                if seed_outcome.ok:
                    yield _outcome(index, schedule, seed_outcome.value)
                else:
                    yield ExecutionOutcome(index, schedule, error=seed_outcome.error)
