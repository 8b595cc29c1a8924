"""Synchronization primitives for simulated threads.

:class:`Mutex`, :class:`CondVar` and :class:`Semaphore` are passive state
holders; the CPU scheduler manipulates them when interpreting syscalls.
:class:`MessageQueue` is written *in terms of* the primitives as generator
methods that thread code embeds with ``yield from`` — the same layering a
real middleware would have on top of pthreads.

External (non-thread) contexts such as network-delivery events can push
into a :class:`MessageQueue` via :meth:`MessageQueue.post`, which wakes
blocked readers through the scheduler.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Generator

from repro.obs import context as obs_context
from repro.obs.bus import TRACK_NETWORK
from repro.obs.metrics import DEPTH_BUCKETS
from repro.sim.process import (
    Acquire,
    Notify,
    Release,
    SimThread,
    Wait,
    WaitResult,
    WaitUntil,
)

if TYPE_CHECKING:
    from repro.sim.scheduler import CpuScheduler


class Mutex:
    """A non-reentrant mutual-exclusion lock."""

    def __init__(self, name: str = "mutex") -> None:
        self.name = name
        self.owner: SimThread | None = None
        self.waiters: list[SimThread] = []

    @property
    def locked(self) -> bool:
        """Whether some thread currently holds the mutex."""
        return self.owner is not None

    def __repr__(self) -> str:
        holder = self.owner.name if self.owner else None
        return f"Mutex({self.name!r}, owner={holder}, waiters={len(self.waiters)})"


class CondVar:
    """A condition variable used with an associated :class:`Mutex`."""

    def __init__(self, name: str = "condvar") -> None:
        self.name = name
        self.waiters: list[SimThread] = []

    def __repr__(self) -> str:
        return f"CondVar({self.name!r}, waiters={len(self.waiters)})"


class Semaphore:
    """A counting semaphore built from a mutex and a condition variable.

    Methods are generators; call them with ``yield from``.
    """

    def __init__(self, initial: int = 0, name: str = "sem") -> None:
        if initial < 0:
            raise ValueError("semaphore count must be non-negative")
        self.name = name
        self._count = initial
        self._mutex = Mutex(f"{name}.mutex")
        self._nonzero = CondVar(f"{name}.nonzero")

    @property
    def value(self) -> int:
        """Current count (snapshot; may change at the next yield point)."""
        return self._count

    def acquire(self) -> Generator[Any, Any, None]:
        """Decrement the count, blocking while it is zero."""
        yield Acquire(self._mutex)
        while self._count == 0:
            yield Wait(self._nonzero, self._mutex)
        self._count -= 1
        yield Release(self._mutex)

    def release(self) -> Generator[Any, Any, None]:
        """Increment the count and wake one waiter."""
        yield Acquire(self._mutex)
        self._count += 1
        yield Notify(self._nonzero)
        yield Release(self._mutex)


class MessageQueue:
    """A bounded FIFO queue connecting threads (and external events).

    ``capacity=None`` means unbounded.  ``get``/``put`` are generator
    methods for thread code; :meth:`post` is for non-thread contexts (for
    example a simulated NIC interrupt) and never blocks — when the queue
    is full it applies ``overflow`` policy: ``"drop-new"`` discards the
    posted item, ``"drop-old"`` discards the oldest queued item,
    ``"error"`` raises.
    """

    def __init__(
        self,
        scheduler: "CpuScheduler",
        capacity: int | None = None,
        name: str = "queue",
        overflow: str = "error",
    ) -> None:
        if overflow not in ("drop-new", "drop-old", "error"):
            raise ValueError(f"unknown overflow policy {overflow!r}")
        self.name = name
        self._scheduler = scheduler
        self._capacity = capacity
        self._overflow = overflow
        self._items: deque[Any] = deque()
        self._mutex = Mutex(f"{name}.mutex")
        self._not_empty = CondVar(f"{name}.not_empty")
        self._not_full = CondVar(f"{name}.not_full")
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def capacity(self) -> int | None:
        """Maximum number of queued items, or ``None`` if unbounded."""
        return self._capacity

    def _full(self) -> bool:
        return self._capacity is not None and len(self._items) >= self._capacity

    def put(self, item: Any) -> Generator[Any, Any, None]:
        """Enqueue *item*, blocking while the queue is full."""
        yield Acquire(self._mutex)
        while self._full():
            yield Wait(self._not_full, self._mutex)
        self._items.append(item)
        yield Notify(self._not_empty)
        yield Release(self._mutex)

    def get(self) -> Generator[Any, Any, Any]:
        """Dequeue the oldest item, blocking while the queue is empty."""
        yield Acquire(self._mutex)
        while not self._items:
            yield Wait(self._not_empty, self._mutex)
        item = self._items.popleft()
        yield Notify(self._not_full)
        yield Release(self._mutex)
        return item

    def get_until(self, local_deadline: int) -> Generator[Any, Any, Any]:
        """Dequeue with a local-clock deadline.

        Returns the item, or ``None`` if the deadline passed with the
        queue still empty.
        """
        yield Acquire(self._mutex)
        while not self._items:
            result = yield WaitUntil(self._not_empty, self._mutex, local_deadline)
            if result is WaitResult.TIMEOUT and not self._items:
                yield Release(self._mutex)
                return None
        item = self._items.popleft()
        yield Notify(self._not_full)
        yield Release(self._mutex)
        return item

    def try_get(self) -> Generator[Any, Any, Any]:
        """Dequeue without blocking; returns ``None`` if empty."""
        yield Acquire(self._mutex)
        item = self._items.popleft() if self._items else None
        if item is not None:
            yield Notify(self._not_full)
        yield Release(self._mutex)
        return item

    def post(self, item: Any) -> bool:
        """Enqueue from a non-thread context; never blocks.

        Returns ``True`` if the item was queued, ``False`` if it was
        dropped by the overflow policy.  The kernel executes events
        atomically, so no lock is needed here; readers blocked in
        :meth:`get` are woken through the scheduler.
        """
        o = obs_context.ACTIVE
        if self._full():
            if self._overflow == "error":
                raise OverflowError(f"queue {self.name!r} is full")
            if self._overflow == "drop-new":
                self.dropped += 1
                if o is not None:
                    self._record_drop(o)
                return False
            self._items.popleft()
            self.dropped += 1
            if o is not None:
                self._record_drop(o)
        self._items.append(item)
        if o is not None:
            o.metrics.histogram("queue.depth", DEPTH_BUCKETS).observe(
                len(self._items)
            )
            o.metrics.gauge(f"queue.depth.{self.name}").set(len(self._items))
        self._scheduler.external_notify(self._not_empty)
        return True

    def _record_drop(self, o: Any) -> None:
        o.metrics.counter("queue.dropped").inc()
        o.bus.instant(
            TRACK_NETWORK,
            f"queue-drop {self.name}",
            self._scheduler._sim.now,
            o.wall_ns(),
            policy=self._overflow,
            depth=len(self._items),
        )

    def peek_all(self) -> list[Any]:
        """Snapshot of queued items (diagnostics only)."""
        return list(self._items)
