"""Simulated threads and their system calls.

A simulated thread is a Python generator that *yields* syscall objects to
the platform's CPU scheduler (:mod:`repro.sim.scheduler`).  Each yield
point is a place where the OS could reschedule — exactly the granularity
at which real thread interleaving nondeterminism manifests.  Library code
(queues, middleware) is written as generators too and embedded with
``yield from``.

Example thread body::

    def worker(platform, queue):
        while True:
            item = yield from queue.get()
            yield Compute(2 * US)          # simulate processing cost
            if item is None:
                return
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

if TYPE_CHECKING:
    from repro.sim.sync import CondVar, Mutex


class ThreadState(enum.Enum):
    """Lifecycle states of a simulated thread."""

    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    SLEEPING = "sleeping"
    BLOCKED = "blocked"
    DONE = "done"


class WaitResult(enum.Enum):
    """Outcome of a :class:`WaitUntil` syscall."""

    NOTIFIED = "notified"
    TIMEOUT = "timeout"


# --------------------------------------------------------------------------
# Syscall objects.  Threads yield these; the scheduler interprets them.
# --------------------------------------------------------------------------


@dataclass(slots=True, eq=False)
class Compute:
    """Occupy the CPU core for *duration_ns* of simulated time."""

    duration_ns: int


@dataclass(slots=True, eq=False)
class Sleep:
    """Release the core and sleep for *duration_ns* of local clock time."""

    duration_ns: int


@dataclass(slots=True, eq=False)
class SleepUntil:
    """Release the core and sleep until the local clock reads *local_time*."""

    local_time: int


@dataclass(slots=True, eq=False)
class Yield:
    """Release the core but stay runnable (cooperative reschedule point)."""


@dataclass(slots=True, eq=False)
class Acquire:
    """Acquire a mutex, blocking if it is held."""

    mutex: "Mutex"


@dataclass(slots=True, eq=False)
class Release:
    """Release a held mutex, waking one random waiter if any."""

    mutex: "Mutex"


@dataclass(slots=True, eq=False)
class Wait:
    """Atomically release *mutex* and wait on *condvar*.

    Resumes holding *mutex* again; yields :data:`WaitResult.NOTIFIED`.
    With ``mutex=None`` the thread waits on *condvar* alone and becomes
    runnable as soon as it is notified.  That is only sound when the
    waiting thread is the condition's sole consumer and its producers
    run in kernel context (event callbacks), so nothing can interleave
    between its check and its wait.
    """

    condvar: "CondVar"
    mutex: "Mutex | None"


@dataclass(slots=True, eq=False)
class WaitUntil:
    """Like :class:`Wait` but with a local-clock deadline.

    Yields a :class:`WaitResult` telling whether the thread was notified
    or the deadline passed.  ``mutex=None`` has :class:`Wait`'s meaning.
    """

    condvar: "CondVar"
    mutex: "Mutex | None"
    local_deadline: int


@dataclass(slots=True, eq=False)
class Notify:
    """Wake one (randomly chosen) waiter of *condvar*."""

    condvar: "CondVar"


@dataclass(slots=True, eq=False)
class NotifyAll:
    """Wake every waiter of *condvar*."""

    condvar: "CondVar"


@dataclass(slots=True, eq=False)
class Join:
    """Block until *thread* finishes; yields its return value."""

    thread: "SimThread"


@dataclass(slots=True, eq=False)
class Exit:
    """Terminate the thread immediately with *value* as its result."""

    value: Any = None


Syscall = (
    Compute
    | Sleep
    | SleepUntil
    | Yield
    | Acquire
    | Release
    | Wait
    | WaitUntil
    | Notify
    | NotifyAll
    | Join
    | Exit
)


@dataclass(eq=False)
class SimThread:
    """A simulated thread: a generator plus scheduler bookkeeping.

    Application code never constructs these directly; use
    :meth:`repro.sim.platform.Platform.spawn`.
    """

    name: str
    generator: Generator[Any, Any, Any]
    state: ThreadState = ThreadState.NEW
    result: Any = None
    #: Threads blocked in :class:`Join` on this thread.
    joiners: list["SimThread"] = field(default_factory=list)
    #: Value to send into the generator on next resume.
    resume_value: Any = None
    #: Mutex this thread must reacquire before resuming (condvar wakeup;
    #: ``None`` for a mutex-free wait).
    reacquire: Any = None
    #: Handle of a pending sleep/timeout event (for cancellation).
    timeout_handle: Any = None
    #: Core index while RUNNING, else None.
    core: int | None = None
    #: Scheduler-owned continuation callables, created once at spawn so
    #: the hot dispatch/compute paths never allocate a per-event closure.
    resume_cb: Any = None
    wake_cb: Any = None

    @property
    def done(self) -> bool:
        """Whether the thread has terminated."""
        return self.state is ThreadState.DONE

    def __repr__(self) -> str:
        return f"SimThread({self.name!r}, {self.state.value})"
