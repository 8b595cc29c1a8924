"""The LRU snapshot store: live holders keyed by decision-trace prefix.

A stored snapshot is a *holder process* — a child frozen at decision
index ``k`` of some run, blocked on its control socket.  The key is
``(context, k, prefix_digest)`` where ``context`` identifies everything
outside the decision vector (experiment, scenario, base seed, fault
plan, code fingerprint) and ``prefix_digest`` hashes the decisions
consumed *before* index ``k``.  Because every source of divergence
between two runs of the same context flows through the decision vector
(preemption delays, fault-replay membership), equal prefixes imply
bit-identical process state at ``k`` — which is what makes a fork from
the deepest shared-prefix holder byte-equivalent to replaying the
prefix from t=0.

Eviction is the cheapest operation in the subsystem: closing our end of
the holder's control socket EOFs its blocking ``recv`` and the process
exits.  The same mechanism cleans up after a crashed orchestrator — no
daemon, no pidfile, no state on disk: snapshots are process-resident
and die with the session.  :class:`SnapshotStats` is the one account
of how an engine's executions ran; the ``explore`` and ``faults``
reports embed it.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["SnapshotStats", "SnapshotStore", "default_capacity"]

DEFAULT_CAPACITY = 16


def default_capacity() -> int:
    """Holder-process cap from ``REPRO_SNAPSHOT_CAPACITY`` (default 16)."""
    try:
        value = int(os.environ.get("REPRO_SNAPSHOT_CAPACITY", ""))
    except ValueError:
        return DEFAULT_CAPACITY
    return max(1, value) if value else DEFAULT_CAPACITY


@dataclass
class SnapshotStats:
    """Accounting for one engine/store lifetime."""

    #: Executions answered by forking a holder.
    fork_hits: int = 0
    #: Executions that ran from t=0 (no usable shared-prefix holder).
    misses: int = 0
    #: Executions that bypassed the engine (unsupported platform).
    inline: int = 0
    #: Holder processes captured.
    captures: int = 0
    #: Holders evicted under LRU pressure (shutdown teardown not counted).
    evictions: int = 0
    #: Forked executions that failed mid-protocol and re-ran inline.
    failures: int = 0
    #: Sum of fork indices — decisions *not* re-executed thanks to COW.
    reused_decisions: int = 0
    #: Sum of decision-vector spans across engine executions.
    total_decisions: int = 0
    capture_ns_total: int = 0
    fork_ns_total: int = 0

    @property
    def capture_ns_mean(self) -> float:
        return self.capture_ns_total / self.captures if self.captures else 0.0

    @property
    def fork_ns_mean(self) -> float:
        return self.fork_ns_total / self.fork_hits if self.fork_hits else 0.0

    def as_dict(self) -> dict[str, Any]:
        """The counts only: host timings would make two identical runs
        write different bytes."""
        return {
            "fork_hits": self.fork_hits,
            "misses": self.misses,
            "inline": self.inline,
            "captures": self.captures,
            "evictions": self.evictions,
            "failures": self.failures,
            "reused_decisions": self.reused_decisions,
            "total_decisions": self.total_decisions,
        }

    def describe(self) -> str:
        """One report line: where the executions came from."""
        runs = self.fork_hits + self.misses + self.inline
        return (
            f"snapshots: {self.fork_hits}/{runs} run(s) forked from a "
            f"holder ({self.misses} cold, {self.inline} inline), "
            f"{self.captures} captured, {self.evictions} evicted, "
            f"{self.reused_decisions} decision(s) reused"
        )


@dataclass
class _Holder:
    """Orchestrator-side handle on one frozen holder process."""

    context: str
    index: int
    digest: str
    ctrl: Any  # the control socket; closing it evicts the holder
    capture_ns: int = 0


@dataclass
class SnapshotStore:
    """LRU of live holders and their :class:`SnapshotStats`."""

    capacity: int = field(default_factory=default_capacity)
    stats: SnapshotStats = field(default_factory=SnapshotStats)

    def __post_init__(self) -> None:
        self._holders: OrderedDict[tuple[str, int, str], _Holder] = OrderedDict()

    def __len__(self) -> int:
        return len(self._holders)

    def has(self, context: str, index: int, digest: str) -> bool:
        return (context, index, digest) in self._holders

    def put(self, holder: _Holder) -> None:
        """Adopt a freshly registered holder, evicting LRU overflow."""
        key = (holder.context, holder.index, holder.digest)
        existing = self._holders.pop(key, None)
        if existing is not None:
            self._evict(existing)
        self._holders[key] = holder
        self.stats.captures += 1
        self.stats.capture_ns_total += holder.capture_ns
        while len(self._holders) > self.capacity:
            _key, evicted = self._holders.popitem(last=False)
            self._evict(evicted)

    def best(
        self, context: str, digest_for: Callable[[int], str]
    ) -> _Holder | None:
        """The deepest holder whose captured prefix matches the probe.

        *digest_for(k)* is the probe's own prefix digest at index *k*;
        a holder is usable iff the probe would have made exactly the
        decisions the holder's run made before its capture point.
        """
        best: _Holder | None = None
        for (ctx, index, digest), holder in self._holders.items():
            if ctx != context:
                continue
            if best is not None and index <= best.index:
                continue
            if digest_for(index) == digest:
                best = holder
        if best is not None:
            self._holders.move_to_end((best.context, best.index, best.digest))
        return best

    def discard(self, holder: _Holder) -> None:
        """Drop a holder that failed mid-protocol."""
        self._holders.pop((holder.context, holder.index, holder.digest), None)
        self._evict(holder)

    def _evict(self, holder: _Holder, count: bool = True) -> None:
        try:
            holder.ctrl.close()
        except OSError:
            pass
        if count:
            self.stats.evictions += 1

    def inherited_fds(self) -> list[int]:
        """Control-socket fds a forked child must close immediately.

        A cold-run child inherits our end of every holder's control
        socket; if a long-lived holder forked inside that child kept
        them open, eviction-by-EOF would silently stop working.
        """
        fds = []
        for holder in self._holders.values():
            try:
                fds.append(holder.ctrl.fileno())
            except OSError:
                continue
        return fds

    def close(self) -> None:
        """Release every holder (their processes exit on EOF).

        Teardown is not LRU pressure, so it does not count as eviction —
        a post-``close`` report still shows how the store behaved live.
        """
        while self._holders:
            _key, holder = self._holders.popitem(last=False)
            self._evict(holder, count=False)
