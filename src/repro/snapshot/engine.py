"""Copy-on-write world snapshots via a fork server.

Why processes, not serialization
--------------------------------

A running world is made of *live generator coroutines*: every simulated
thread — app stages, SOME/IP middleware, sync primitives — is a Python
generator suspended mid-``yield``, holding its locals and call stack
inside the interpreter.  Generators cannot be pickled or deep-copied,
so a field-by-field ``WorldSnapshot`` (time wheel, scheduler tiers,
reactor heaps, switch queues, SD state, RNG positions...) is impossible
to build faithfully in pure Python.  What *can* capture all of it,
wholesale and bit-exactly, is the operating system: ``os.fork()``
duplicates the entire interpreter — every bucket, heap, pooled event,
in-flight frame and PRF counter — behind copy-on-write page tables.  A
snapshot here is therefore a **holder**: a forked child frozen at a
decision index, blocked on a control socket; ``fork(snapshot)`` forks
the holder again and resumes the copy under a different decision
suffix.

Why this is sound
-----------------

The kernel and everything above it are deterministic functions of the
root seed; the *only* way two runs of the same context (experiment,
scenario, seed, fault plan, code version) can diverge is through an
explicit decision vector — preemption delays consumed by
:class:`repro.explore.decisions.InterventionController`, or fault-trace
membership consumed by :class:`repro.faults.injector.FaultInjector` in
replay mode.  Capture happens *before* decision ``k`` is consumed, so a
holder's state depends only on decisions ``< k``; any probe agreeing on
that prefix can adopt the holder's state and replay only its own
suffix: O(ΔT) instead of O(T).

The protocol
------------

One orchestrator (the caller's process) and three transient roles::

    orchestrator ── fork ──> runner (cold run, t=0)
        runner ── fork at decision k ──> holder (frozen; serves forks)
            holder ── fork per RUN msg ──> continuation (runs suffix)

* the runner executes ``run(checkpointer)``; at each planned capture
  index the decision source calls ``checkpointer.reached(k, adopt)``,
  which forks a holder and registers its control socket with the
  orchestrator over an inherited SEQPACKET pair (fd passing);
* a RUN message carries the probe's decision payload, its remaining
  capture plan and a fresh result-pipe fd; the holder forks a
  continuation, which installs the new suffix via ``adopt(payload)``
  and simply *returns* from ``reached`` — resuming the simulation
  mid-flight with the probe's decisions;
* results come back as one framed pickle on the result pipe; children
  always leave via ``os._exit`` so no pytest/atexit machinery runs
  twice;
* eviction, crash cleanup and engine shutdown are all "close the
  control socket": the holder's blocking ``recv`` EOFs and it exits.

Every failure degrades to a from-scratch in-process run — snapshots are
an accelerator, never a correctness dependency.
"""

from __future__ import annotations

import hashlib
import os
import signal
import sys
import time
import traceback
from typing import Any, Callable, Iterable, Sequence

from repro.snapshot import ipc
from repro.snapshot.store import SnapshotStats, SnapshotStore, _Holder

__all__ = [
    "SnapshotEngine",
    "Checkpointer",
    "RemoteRunError",
    "ScheduleDecisions",
    "MembershipDecisions",
    "MAX_CAPTURES_PER_RUN",
]

#: Holder processes one run may spawn (keeps registration traffic far
#: below the control socket's buffer and bounds resident holders).
MAX_CAPTURES_PER_RUN = 32


class RemoteRunError(RuntimeError):
    """The experiment raised inside a forked execution.

    Carries the child's formatted traceback; the exception class itself
    does not survive the process boundary.
    """


def _digest(material: Any) -> str:
    return hashlib.sha256(repr(material).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Decision vectors (what prefixes are keyed and forked on).
# ---------------------------------------------------------------------------


class ScheduleDecisions:
    """Sparse per-site preemption delays as a prefix-keyed vector.

    Index space = preemption-site ordinals; the decision at site ``s``
    is the injected delay (0 everywhere except the schedule's points).
    Capture points sit at the schedule's own sites: ddmin probes and
    PCT siblings agree with the parent run exactly up to their first
    differing point, so those are the highest-reuse instants.
    """

    __slots__ = ("pairs",)

    def __init__(self, schedule: Any) -> None:
        self.pairs = tuple(
            sorted((p.site, p.delay_ns) for p in schedule.preemptions)
        )

    def capture_indices(self) -> list[int]:
        return [site for site, _delay in self.pairs]

    def prefix_digest(self, index: int) -> str:
        return _digest([pair for pair in self.pairs if pair[0] < index])

    def payload(self) -> dict[int, int]:
        return dict(self.pairs)

    def span(self) -> int:
        return self.pairs[-1][0] + 1 if self.pairs else 0


class MembershipDecisions:
    """Fault-trace membership bits as a prefix-keyed vector.

    Index space = the chronological order of the *original* fired-fault
    trace (the ddmin universe); the decision at index ``i`` is whether
    record ``i`` stays in the replay table.  A record's membership
    cannot affect the run before its own firing site, so probes
    agreeing on bits ``< k`` are bit-identical up to record ``k``.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: Sequence[int]) -> None:
        self.bits = tuple(1 if bit else 0 for bit in bits)

    def capture_indices(self) -> list[int]:
        return list(range(len(self.bits)))

    def prefix_digest(self, index: int) -> str:
        return _digest(self.bits[:index])

    def payload(self) -> tuple[int, ...]:
        return self.bits

    def span(self) -> int:
        return len(self.bits)


# ---------------------------------------------------------------------------
# The in-run capture hook.
# ---------------------------------------------------------------------------


class Checkpointer:
    """Lives inside a runner/continuation; forks holders on demand.

    Decision sources gate on :meth:`wants` (a set lookup — the hot path
    stays hot) and call :meth:`reached` with an ``adopt(payload)``
    closure that re-targets the live source at the new decision suffix.
    ``reached`` returns twice per capture, in two different processes:
    immediately in the runner (which keeps executing), and once per
    future fork in a fresh continuation child (which resumes the
    simulation under the adopted suffix).
    """

    __slots__ = ("context", "result_fd", "resumed_ns", "_plan", "_reg")

    def __init__(
        self,
        context: str,
        plan: dict[int, str],
        reg: Any,
        result_fd: int,
    ) -> None:
        self.context = context
        self.result_fd = result_fd
        #: ``monotonic_ns`` at continuation resume (fork latency probe).
        self.resumed_ns: int | None = None
        self._plan = plan
        self._reg = reg

    def wants(self, index: int) -> bool:
        return index in self._plan

    def reached(self, index: int, adopt: Callable[[Any], None]) -> None:
        digest = self._plan.pop(index, None)
        if digest is None:
            return
        sys.stdout.flush()
        sys.stderr.flush()
        started = time.monotonic_ns()
        ctrl_run, ctrl_hold = ipc.seqpacket_pair()
        pid = os.fork()
        if pid:
            # Still the runner: hand the holder's control socket up to
            # the orchestrator and keep executing.  Best-effort — a
            # full registration channel abandons the capture (the
            # holder EOFs and exits when ctrl_run closes below).
            ctrl_hold.close()
            try:
                message = (
                    self.context,
                    index,
                    digest,
                    time.monotonic_ns() - started,
                )
                ipc.send_msg(self._reg, message, fds=(ctrl_run.fileno(),))
            except (OSError, BlockingIOError, ipc.SnapshotIpcError):
                pass
            finally:
                ctrl_run.close()
            return
        # The holder: never touches the simulation again.  Its children
        # are auto-reaped, its parent's result pipe is released so a
        # crashed sibling cannot wedge the orchestrator's read, and EOF
        # on the control socket is the one and only exit signal.
        ctrl_run.close()
        signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        os.close(self.result_fd)
        self._plan = {}
        while True:
            received = ipc.recv_msg(ctrl_hold)
            if received is None:
                os._exit(0)
            (payload, plan), fds = received
            child = os.fork()
            if child == 0:
                # The continuation: adopt the probe's suffix and resume
                # the simulation by returning from this very frame.
                ctrl_hold.close()
                self._plan = dict(plan)
                self.result_fd = fds[0]
                self.resumed_ns = time.monotonic_ns()
                adopt(payload)
                return
            for fd in fds:
                os.close(fd)


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------


class SnapshotEngine:
    """Execute decision-vector runs, forking from shared-prefix holders.

    ``execute(context, decisions, run)`` is the whole API: *run* is any
    ``(checkpointer) -> picklable`` callable (closures welcome — fork
    carries them for free), called with ``None`` when it runs inline in
    this process (no fork support, or a child that died without a
    result); *decisions* is a
    :class:`ScheduleDecisions`/:class:`MembershipDecisions`-shaped
    vector; *context* strings together everything outside the vector
    that defines the run (experiment, scenario, seed, fault plan, code
    fingerprint).  Identical context + matching decision prefix ⇒ the
    engine forks the deepest matching holder instead of re-running the
    prefix.
    """

    def __init__(
        self,
        store: SnapshotStore | None = None,
        max_captures_per_run: int = MAX_CAPTURES_PER_RUN,
    ) -> None:
        self.supported = ipc.SUPPORTED
        # Not `store or ...`: an empty store is len() == 0, hence falsy.
        self.store = store if store is not None else SnapshotStore()
        self.max_captures_per_run = max_captures_per_run
        self._reg_recv: Any = None
        self._reg_send: Any = None
        if self.supported:
            self._reg_recv, self._reg_send = ipc.seqpacket_pair()
            self._reg_recv.setblocking(False)
            # Registration must never block a runner mid-simulation: a
            # full channel raises and the capture is abandoned instead.
            self._reg_send.setblocking(False)

    @property
    def stats(self) -> SnapshotStats:
        return self.store.stats

    # -- execution -----------------------------------------------------------

    def execute(self, context: str, decisions: Any, run: Callable[[Any], Any]):
        """Run once under *decisions*, forking a shared prefix if any.

        Returns whatever *run* returned (round-tripped through pickle).
        An exception inside the experiment re-raises here as
        :class:`RemoteRunError` carrying the child's traceback.
        """
        stats = self.stats
        stats.total_decisions += decisions.span()
        if not self.supported:
            stats.inline += 1
            return run(None)
        holder = self.store.best(context, decisions.prefix_digest)
        plan = self._capture_plan(context, decisions, after=holder)
        try:
            if holder is None:
                stats.misses += 1
                envelope = self._run_cold(context, plan, run)
            else:
                envelope = self._run_forked(holder, decisions, plan)
        finally:
            self._drain_registrations()
        if envelope is None:
            # The child died without a result (crash, protocol break):
            # degrade to a plain in-process run.
            stats.failures += 1
            if holder is not None:
                self.store.discard(holder)
            return run(None)
        kind, value, resumed_ns, started_ns = envelope
        if holder is not None:
            stats.fork_hits += 1
            stats.reused_decisions += holder.index
            if resumed_ns is not None:
                stats.fork_ns_total += max(0, resumed_ns - started_ns)
        if kind == "err":
            raise RemoteRunError(value)
        return value

    def _capture_plan(
        self, context: str, decisions: Any, after: _Holder | None
    ) -> dict[int, str]:
        """Capture indices this execution should register holders at."""
        floor = after.index if after is not None else -1
        plan: dict[int, str] = {}
        for index in decisions.capture_indices():
            if index <= floor:
                continue
            digest = decisions.prefix_digest(index)
            if not self.store.has(context, index, digest):
                plan[index] = digest
            if len(plan) >= self.max_captures_per_run:
                break
        return plan

    def _run_cold(
        self, context: str, plan: dict[int, str], run: Callable[[Any], Any]
    ):
        result_read, result_write = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        started_ns = time.monotonic_ns()
        pid = os.fork()
        if pid == 0:
            # The runner.  Drop every orchestrator-side fd first so
            # holders forked below cannot keep each other (or us) alive.
            os.close(result_read)
            self._reg_recv.close()
            for fd in self.store.inherited_fds():
                try:
                    os.close(fd)
                except OSError:
                    pass
            checkpointer = Checkpointer(context, plan, self._reg_send, result_write)
            self._finish_child(checkpointer, run)
        os.close(result_write)
        try:
            envelope = ipc.read_framed(result_read)
        finally:
            os.close(result_read)
            os.waitpid(pid, 0)
        return self._with_start(envelope, started_ns)

    def _run_forked(self, holder: _Holder, decisions: Any, plan: dict[int, str]):
        result_read, result_write = os.pipe()
        started_ns = time.monotonic_ns()
        try:
            ipc.send_msg(
                holder.ctrl,
                (decisions.payload(), plan),
                fds=(result_write,),
            )
        except OSError:
            os.close(result_read)
            os.close(result_write)
            return None
        os.close(result_write)
        try:
            envelope = ipc.read_framed(result_read)
        finally:
            os.close(result_read)
        return self._with_start(envelope, started_ns)

    @staticmethod
    def _with_start(envelope, started_ns: int):
        if envelope is None:
            return None
        kind, value, resumed_ns = envelope
        return kind, value, resumed_ns, started_ns

    def _finish_child(self, checkpointer: Checkpointer, run) -> None:
        """Runner/continuation epilogue: ship the result, then vanish.

        Continuations forked from holders resume *inside* ``run`` and
        return into this very frame, so the result fd is read from the
        checkpointer (the RUN message re-targets it), not from a local.
        """
        try:
            try:
                value = run(checkpointer)
                envelope = ("ok", value, checkpointer.resumed_ns)
            except BaseException:
                envelope = ("err", traceback.format_exc(), checkpointer.resumed_ns)
            try:
                ipc.write_framed(checkpointer.result_fd, envelope)
            except (OSError, ValueError):
                pass
        finally:
            os._exit(0)

    def _drain_registrations(self) -> None:
        if self._reg_recv is None:
            return
        while True:
            try:
                received = ipc.recv_msg(self._reg_recv)
            except (BlockingIOError, OSError):
                return
            if received is None:
                return
            (context, index, digest, capture_ns), fds = received
            if not fds:
                continue
            ctrl = ipc.adopt_socket(fds[0])
            for extra in fds[1:]:
                os.close(extra)
            self.store.put(
                _Holder(context, index, digest, ctrl, capture_ns=capture_ns)
            )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Evict every holder and close the registration channel."""
        self._drain_registrations()
        self.store.close()
        for sock in (self._reg_recv, self._reg_send):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._reg_recv = self._reg_send = None

    def __enter__(self) -> "SnapshotEngine":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def context_key(*parts: Any, extra: Iterable[Any] = ()) -> str:
    """A stable context string from heterogeneous identifying parts."""
    material = [repr(part) for part in parts] + [repr(p) for p in extra]
    return _digest("|".join(material))
