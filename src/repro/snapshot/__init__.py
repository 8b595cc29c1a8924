"""Snapshot/fork execution: copy-on-write world checkpoints.

Re-running a world from t=0 for every explore schedule, ddmin probe or
fault replay costs O(n·T) even when the executions share a long common
prefix.  This package captures a run's complete state at a decision
instant — as a frozen, copy-on-write child process — and forks it to
execute only the differing suffix: O(ΔT) per execution.

* :mod:`repro.snapshot.engine` — the fork server: runners, holders,
  continuations, and the decision-vector abstractions
  (:class:`ScheduleDecisions`, :class:`MembershipDecisions`);
* :mod:`repro.snapshot.store` — the LRU holder store keyed by
  ``(context, index, decision-prefix digest)`` and its
  :class:`SnapshotStats`, the per-engine account of forked, cold and
  inline executions that ``explore`` and ``faults`` reports embed
  (counts only, so a report's bytes depend on its inputs alone);
  nothing is written to disk, holders live and die with the session;
* :mod:`repro.snapshot.ipc` — SEQPACKET messaging, fd passing and
  framed result pipes.

On platforms without ``os.fork`` the engine stays importable and every
execution runs inline from scratch — same results, no speedup.
"""

from repro.snapshot.engine import (
    Checkpointer,
    MembershipDecisions,
    RemoteRunError,
    ScheduleDecisions,
    SnapshotEngine,
    context_key,
)
from repro.snapshot.ipc import SUPPORTED as SNAPSHOTS_SUPPORTED
from repro.snapshot.store import SnapshotStats, SnapshotStore

__all__ = [
    "SnapshotEngine",
    "SnapshotStore",
    "SnapshotStats",
    "Checkpointer",
    "RemoteRunError",
    "ScheduleDecisions",
    "MembershipDecisions",
    "context_key",
    "SNAPSHOTS_SUPPORTED",
]
