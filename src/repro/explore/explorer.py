"""The budgeted exploration loop.

An :class:`Explorer` owns one target experiment (the stock brake
assistant by default), a base seed, a scenario and a strategy.  It
first *calibrates* — one baseline run counting the dispatch horizon —
then evaluates schedules ``strategy.schedule_for(0..budget-1)`` until
the failure predicate fires or the budget is exhausted.  Executions
are independent, so they fan out over the
:class:`repro.harness.sweep.SweepRunner` process pool in chunks (with
early exit between chunks) and per-execution outcomes land in the
sweep result cache like any other seeded experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

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
    checkpointer: Any = None,
    *,
    experiment: Callable[..., Any],
    scenario: Any,
    strategy: Any,
    base_seed: int,
    horizon: int,
) -> dict:
    """Worker body: evaluate one schedule, return a compact summary.

    Picklable for the sweep pool; the snapshot path calls it with the
    engine's *checkpointer*.
    """
    schedule = strategy.schedule_for(execution, base_seed, horizon)
    return _summarize(*_run(experiment, scenario, schedule, checkpointer=checkpointer))


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
        #: Optional :class:`repro.snapshot.SnapshotEngine`; when active,
        #: explore/shrink executions fork from the deepest
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

    def run_schedule_forked(self, schedule: InterventionSchedule) -> dict:
        """Evaluate *schedule* through the snapshot engine.

        Forks from the deepest holder whose captured decision prefix
        matches the schedule (cold-running and capturing along the way
        on a miss) and returns the same summary dict as the pooled
        explore path.  Requires :attr:`snapshots`.
        """
        from repro.snapshot import ScheduleDecisions

        return self.snapshots.execute(
            self._snapshot_context(schedule.base_seed),
            ScheduleDecisions(schedule),
            lambda checkpointer: _summarize(*self.run_schedule(schedule, checkpointer)),
        )

    def annotate(self, schedule: InterventionSchedule) -> InterventionSchedule:
        """Resolve which thread each preemption point actually hit."""
        _result, controller = self.run_schedule(schedule)
        applied = {point.site: point for point in controller.applied}
        return schedule.with_points(
            applied.get(point.site, point) for point in schedule.preemptions
        )

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
        engine = self.snapshots
        if engine is not None and not engine.active:
            engine = None

        def forked_job(index: int):
            from repro.snapshot import ScheduleDecisions

            schedule = self.strategy.schedule_for(index, self.base_seed, horizon)
            return (
                self._snapshot_context(schedule.base_seed),
                ScheduleDecisions(schedule),
                partial(runner, index),
            )

        outcomes: list[ExecutionOutcome] = []
        found: ExecutionOutcome | None = None
        chunk = max(self.sweep.workers, 4)
        for start in range(0, budget, chunk):
            indices = list(range(start, min(start + chunk, budget)))
            if engine is not None:
                batch = self.sweep.run_forked(
                    engine,
                    indices,
                    forked_job,
                    name=f"explore-{self.strategy.name}",
                )
            else:
                batch = self.sweep.run(
                    runner,
                    indices,
                    name=f"explore-{self.strategy.name}",
                    params=params,
                )
            for index, seed_outcome in zip(indices, batch.outcomes):
                schedule = self.strategy.schedule_for(
                    index, self.base_seed, horizon
                )
                if not seed_outcome.ok:
                    outcome = ExecutionOutcome(
                        index, schedule, error=seed_outcome.error
                    )
                else:
                    summary = seed_outcome.value
                    applied = {
                        p["site"]: PreemptionPoint(
                            p["site"], p["delay_ns"], p.get("thread", "")
                        )
                        for p in summary["applied"]
                    }
                    schedule = schedule.with_points(
                        applied.get(point.site, point)
                        for point in schedule.preemptions
                    )
                    outcome = ExecutionOutcome(
                        index,
                        schedule,
                        errors_total=summary["errors_total"],
                        errors=dict(summary["errors"]),
                    )
                outcomes.append(outcome)
                if found is None and outcome.error is None and self.predicate(outcome):
                    found = outcome
                    break
            if found is not None:
                break
        return ExplorationResult(
            strategy=self.strategy.name,
            budget=budget,
            horizon=horizon,
            executions=outcomes,
            found=found,
            snapshots=engine.stats if engine is not None else None,
        )
