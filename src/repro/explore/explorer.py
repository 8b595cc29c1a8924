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

:func:`explore_app` is ``repro explore`` for any registered app: one
search, then the shrink, record, schedule artifact and determinism
verification asked for; :func:`replay_recorded` re-executes a recorded
decision trace.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.apps.brake.nondet import run_nondet_brake_assistant
from repro.explore.decisions import (
    DecisionTrace,
    InterventionSchedule,
    PreemptionPoint,
    ScheduleRecorder,
    ScheduleReplayer,
)
from repro.explore.strategies import PctStrategy, RandomSweepStrategy
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
        if snapshots is not None and not snapshots.supported:
            snapshots = None
        #: A :class:`repro.snapshot.SnapshotEngine` that can fork, or ``None``:
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


def explore_app(
    app: str,
    *,
    strategy: str,
    budget: int,
    frames: int,
    seed: int,
    depth: int,
    preempt_ns: int,
    snapshots: bool,
    shrink: bool = False,
    record: str | None = None,
    schedule_out: str | None = None,
    verify: int = 0,
    sweep: SweepRunner | None = None,
):
    """``repro explore``: search *app*'s stock variant for a failure.

    Up to *budget* schedules of the app's hazard-prone scenario, ``"pct"``
    (*depth* preemptions of *preempt_ns*) or ``"random"``.  A failure
    found is then ddmin-shrunk (*shrink*), its decision trace saved to
    *record* and the schedule artifact (the report's document) to
    *schedule_out*; *verify* > 0 runs DEAR under that many in-budget
    schedules on seed-fixed inputs.  *snapshots* forks executions from
    copy-on-write holders where ``os.fork`` is available.  The
    :class:`~repro.analysis.report.Report` exits 0 iff a failure was
    found and DEAR verified.  The search sizes and *snapshots* have no
    defaults here: they are ``repro explore``'s flags, whose defaults
    live in its parser.

    Unlike the sweep reports, which leave writing their ``to_dict()``
    to the caller, this call writes *record* and *schedule_out* itself:
    the record needs the live explorer, and the report's text names
    each file where it was written, before the verification that
    follows it.
    """
    from repro.analysis.report import (
        Report,
        exploration_report,
        shrink_report,
        verification_report,
    )
    from repro.apps import registry
    from repro.explore.scenarios import IN_BUDGET_PREEMPT_NS
    from repro.explore.shrink import shrink_schedule
    from repro.explore.verify import verify_determinism

    definition = registry.get(app)
    if strategy == "pct":
        search = PctStrategy(depth=depth, preempt_ns=preempt_ns, seed=seed)
    else:
        search = RandomSweepStrategy()
    engine = None
    if snapshots:
        from repro.snapshot import SNAPSHOTS_SUPPORTED, SnapshotEngine

        if SNAPSHOTS_SUPPORTED:
            engine = SnapshotEngine()
    try:
        explorer = Explorer(
            experiment=definition.runner("nondet"),
            scenario=definition.explore_scenario(frames),
            base_seed=seed,
            strategy=search,
            sweep=sweep,
            snapshots=engine,
        )
        result = explorer.explore(budget=budget)
        lines = [exploration_report(result)]

        schedule = result.found.schedule if result.found else None
        errors = dict(result.found.errors) if result.found else {}
        shrunk = None
        if result.found is not None and shrink:
            if schedule.preemptions:
                shrunk = shrink_schedule(explorer, schedule)
                schedule, errors = shrunk.minimal, dict(shrunk.errors)
                lines.append(shrink_report(shrunk))
            else:
                lines.append(
                    "shrink: schedule has no preemption points, nothing to remove"
                )

        if result.found is not None and record:
            run_result, trace = explorer.record(schedule)
            trace.params["app"] = app
            trace.params["frames"] = frames
            trace.params["errors"] = run_result.errors.as_dict()
            trace.save(record)
            lines.append(
                f"record: {len(trace.records)} decisions "
                f"({trace.fingerprint()[:12]}) -> {record}"
            )

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
                {"trials": shrunk.trials, "removed": shrunk.removed} if shrunk else None
            ),
            "snapshots": engine.stats.as_dict() if engine is not None else None,
        }
        if schedule_out:
            Path(schedule_out).write_text(
                json.dumps(artifact, indent=2, sort_keys=True), encoding="utf-8"
            )
            lines.append(f"schedule artifact -> {schedule_out}")

        code = 0 if result.found is not None else 1
        if verify > 0:
            det_scenario = definition.explore_scenario(frames, fixed_inputs=True)
            det_horizon = Explorer(
                experiment=definition.runner("det"),
                scenario=det_scenario,
                base_seed=seed,
            ).horizon
            in_budget = PctStrategy(
                depth=depth, preempt_ns=IN_BUDGET_PREEMPT_NS, seed=seed + 9
            )
            schedules = [
                in_budget.schedule_for(index + 1, seed, det_horizon)
                for index in range(verify)
            ]
            verification = verify_determinism(
                schedules,
                det_scenario,
                base_seed=seed,
                experiment=definition.runner("det"),
                input_threads=definition.input_threads,
                sweep=sweep,
            )
            lines.append(verification_report(verification))
            if not verification.ok:
                code = 1
    finally:
        if engine is not None:
            engine.close()
    notes = engine.stats.describe() if engine is not None else ""
    return Report("\n".join(lines), artifact, code, notes)


def replay_recorded(path: str, app: str, frames: int):
    """``repro explore --replay``: re-execute the trace recorded at *path*.

    The trace's own ``app`` and ``frames`` (written by
    :func:`explore_app`) take precedence over *app* and *frames*.
    Returns a :class:`~repro.analysis.report.Report` whose exit code is
    0 iff the recorded error counters reproduce.
    """
    from repro.analysis.report import Report
    from repro.apps import registry

    trace = DecisionTrace.load(path)
    definition = registry.get(trace.params.get("app", app))
    frames = trace.params.get("frames", frames)
    replayer = ScheduleReplayer(trace)
    with stream_hooks(replayer):
        result = definition.runner("nondet")(
            trace.base_seed, definition.explore_scenario(frames)
        )
    errors = result.errors.as_dict()
    lines = [
        f"replay: {replayer.consumed}/{len(trace.records)} recorded "
        f"decisions consumed (seed {trace.base_seed}, {frames} frames)"
    ]
    expected = trace.params.get("errors")
    if expected is not None and errors != expected:
        lines.append(
            "replay: error counters DIVERGED\n"
            f"  expected: {expected}\n  got:      {errors}"
        )
        return Report("\n".join(lines), exit_code=1)
    nonzero = {name: count for name, count in errors.items() if count}
    lines.append(f"replay: errors reproduced: {nonzero or 'none'}")
    return Report("\n".join(lines))
