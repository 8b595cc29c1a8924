"""Systematic interleaving exploration for the simulated platforms.

The paper's first source of nondeterminism — OS scheduling — lives in
:class:`repro.sim.scheduler.CpuScheduler`, which draws every decision
(which ready thread runs, how late a timer fires, who gets a freed
mutex) from a seeded RNG stream.  Seed sweeps *sample* that space; this
package turns it into a correctness tool that *searches* it:

* :mod:`repro.explore.decisions` — record every scheduler decision as a
  compact, JSON-serializable trace and replay it bit-exactly in place
  of the RNG, so any observed failure becomes a portable artifact;
* :mod:`repro.explore.strategies` — a PCT-style explorer (bounded
  preemption points, the timed analogue of priority-change points)
  alongside uniform-random seed sweeping;
* :mod:`repro.explore.explorer` — the budgeted exploration loop, fanned
  out over the :class:`repro.harness.sweep.SweepRunner` process pool or
  forked one execution at a time from snapshot holders;
* :mod:`repro.explore.shrink` — delta-debugging a failing schedule down
  to a minimal set of preemption points that still reproduces the bug;
* :mod:`repro.explore.verify` — run the DEAR variant under explored
  schedules and assert byte-identical trace fingerprints (or a flagged,
  observable assumption violation — never silent divergence).

Public names load on first access (:mod:`repro._lazy`), so importing
:mod:`repro.explore.decisions` alone, as the fault injector does, does
not load the explorer, the strategies, shrinking or verification.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "DecisionRecord": "decisions",
    "DecisionTrace": "decisions",
    "InterventionSchedule": "decisions",
    "PreemptionPoint": "decisions",
    "ReplayDivergence": "decisions",
    "ScheduleRecorder": "decisions",
    "ScheduleReplayer": "decisions",
    "is_scheduler_stream": "decisions",
    "Explorer": "explorer",
    "ExplorationResult": "explorer",
    "explore_app": "explorer",
    "frame_drop": "explorer",
    "replay_recorded": "explorer",
    "PctStrategy": "strategies",
    "RandomSweepStrategy": "strategies",
    "ShrinkResult": "shrink",
    "ddmin": "shrink",
    "shrink_schedule": "shrink",
    "VerificationResult": "verify",
    "verify_determinism": "verify",
    "calibration_scenario": "scenarios",
    "IN_BUDGET_PREEMPT_NS": "scenarios",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
