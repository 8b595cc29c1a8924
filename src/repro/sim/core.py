"""The discrete-event simulation kernel.

A :class:`Simulator` owns a timestamp-bucketed event queue.  Events are
totally ordered by ``(time, priority, insertion sequence)``, so the
kernel itself introduces **no** nondeterminism — all modelled
nondeterminism comes from explicit RNG draws in higher layers.

Hot-path design (the sim-kernel throughput overhaul)
----------------------------------------------------

The queue is a dict of *time buckets* plus a heap of pending times:
scheduling appends to the current bucket (amortizing the heap push over
every event sharing a timestamp, the dominant shape produced by zero-
delay trampolines and same-tag fan-out) and the run loop dispatches a
whole bucket per heap pop.  :meth:`Simulator.run` has one such loop
for both modes: ``run()`` drains the queue and ``run(until=t)`` (what
``World.run_for`` calls) stops before the first time past ``t``; only a
time holding off-priority entries leaves the inlined loop, through
``_dispatch_time``.  Three scheduling tiers trade generality for
allocation cost:

* :meth:`Simulator.at` / :meth:`Simulator.after` — the general API:
  returns a freshly allocated, cancellable :class:`EventHandle` and
  accepts a priority.  Handles returned here are never recycled, so
  holding one indefinitely is always safe.
* :meth:`Simulator.timer_at` — cancellable like :meth:`at`, but the
  handle comes from a slot/freelist pool and is recycled once the
  kernel is done with it.  **Kernel-internal contract**: the caller
  must drop its reference when the timer fires or right after
  cancelling it with :meth:`Simulator.cancel_timer`, which takes a
  pending handle out of the queue at once (the CPU scheduler's
  sleep/timeout paths do exactly that).
* :meth:`Simulator.post_at` / :meth:`Simulator.post_after` — the fast
  path: no handle, no cancellation, default priority.  Scheduler
  continuations, dispatch trampolines and network deliveries use this;
  it is what ``BENCH_sim_kernel_event_throughput`` measures.

All three tiers share one total order; mixing them cannot reorder
events relative to the previous heap-of-tuples kernel.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.errors import SimulationError
from repro.time.duration import format_duration

#: Default priority for scheduled events; lower runs first at equal times.
PRIORITY_NORMAL = 100
#: Priority for housekeeping that should run before normal events.
PRIORITY_EARLY = 50
#: Priority for events that must observe everything else at their time.
PRIORITY_LATE = 200


class EventHandle:
    """Handle to a scheduled event, supporting cancellation."""

    __slots__ = ("time", "_callback", "_cancelled", "_pooled")

    def __init__(self, time: int, callback: Callable[[], None]) -> None:
        self.time = time
        self._callback = callback
        self._cancelled = False
        self._pooled = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired)."""
        self._cancelled = True
        self._callback = None

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called."""
        return self._cancelled


class Simulator:
    """Deterministic event-queue simulator over integer-nanosecond time."""

    __slots__ = (
        "_now",
        "_sequence",
        "_times",
        "_buckets",
        "_late",
        "_running",
        "_events_processed",
        "_pool",
        "_closed",
    )

    def __init__(self) -> None:
        self._now = 0
        self._sequence = 0
        #: Heap of timestamps with at least one scheduled event.
        self._times: list[int] = []
        #: time -> targets (callables or handles) at PRIORITY_NORMAL,
        #: in insertion order — which *is* the sequence order.
        self._buckets: dict[int, list] = {}
        #: time -> [(priority, sequence, target)] for non-default
        #: priorities (rare: LET publish ordering, test probes).
        self._late: dict[int, list] = {}
        self._running = False
        self._events_processed = 0
        #: Freelist of recycled :meth:`timer_at` handles.
        self._pool: list[EventHandle] = []
        self._closed = False

    @property
    def now(self) -> int:
        """Current global simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._events_processed

    # -- scheduling ---------------------------------------------------------

    def at(
        self,
        time: int,
        callback: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule *callback* at absolute global *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {format_duration(time)}, "
                f"now is {format_duration(self._now)}"
            )
        handle = EventHandle(time, callback)
        if priority == PRIORITY_NORMAL:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = bucket = []
                if time not in self._late:
                    heapq.heappush(self._times, time)
            bucket.append(handle)
        else:
            self._push_late(time, priority, handle)
        return handle

    def after(
        self,
        delay: int,
        callback: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule *callback* after a relative *delay*."""
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        return self.at(self._now + delay, callback, priority)

    def timer_at(self, time: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule a cancellable event on a pooled handle (kernel-internal).

        The handle is recycled through a freelist once the event fires
        (or once its cancelled carcass is swept from the queue), so the
        caller must not retain a reference past that point — see the
        module docstring for the ownership contract.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {format_duration(time)}, "
                f"now is {format_duration(self._now)}"
            )
        pool = self._pool
        if pool:
            handle = pool.pop()
            handle.time = time
            handle._callback = callback
            handle._cancelled = False
        else:
            handle = EventHandle(time, callback)
            handle._pooled = True
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = bucket = []
            if time not in self._late:
                heapq.heappush(self._times, time)
        bucket.append(handle)
        return handle

    def cancel_timer(self, handle: EventHandle) -> None:
        """Cancel a :meth:`timer_at` handle and recycle it at once.

        A pending handle leaves its bucket and goes back to the freelist
        now, instead of waiting in the queue until its time; a bucket it
        leaves empty goes too.  A handle whose bucket is being dispatched
        (or that is firing) is only flagged, like :meth:`EventHandle.cancel`,
        and the kernel recycles it as it passes.  The caller drops its
        reference either way.
        """
        if handle._callback is not None:
            bucket = self._buckets.get(handle.time)
            if bucket is not None:
                try:
                    bucket.remove(handle)
                except ValueError:
                    pass  # in the bucket being dispatched
                else:
                    if not bucket:
                        del self._buckets[handle.time]
                    handle._callback = None
                    self._pool.append(handle)
                    return
        handle.cancel()

    def post_at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule a bare callback: no handle, no cancellation (fast path)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {format_duration(time)}, "
                f"now is {format_duration(self._now)}"
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = bucket = [callback]
            if time not in self._late:
                heapq.heappush(self._times, time)
            return
        bucket.append(callback)

    def post_after(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule a bare callback after *delay* (fast path)."""
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        time = self._now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = bucket = [callback]
            if time not in self._late:
                heapq.heappush(self._times, time)
            return
        bucket.append(callback)

    def _push_late(self, time: int, priority: int, target) -> None:
        entries = self._late.get(time)
        if entries is None:
            self._late[time] = entries = []
            if time not in self._buckets:
                heapq.heappush(self._times, time)
        entries.append((priority, self._sequence, target))
        self._sequence += 1

    # -- dispatch -----------------------------------------------------------

    def _fire_target(self, target) -> int:
        """Run one bucket entry; returns 1 if an event actually fired."""
        if target.__class__ is EventHandle:
            fired = 0
            if not target._cancelled:
                callback = target._callback
                target._callback = None
                fired = 1
                callback()
            if target._pooled:
                target._callback = None
                self._pool.append(target)
            return fired
        target()
        return 1

    def _dispatch_time(self, time: int) -> int:
        """Run every event at *time* in (priority, sequence) order.

        The rare path :meth:`run` takes for a time with off-priority
        entries: the early ones, then the bucket, then the late ones.
        """
        entries = self._late.pop(time)
        entries.sort(key=lambda item: (item[0], item[1]))
        fire = self._fire_target
        fired = 0
        for priority, _seq, target in entries:
            if priority < PRIORITY_NORMAL:
                fired += fire(target)
        bucket = self._buckets.pop(time, None)
        if bucket is not None:
            for target in bucket:
                fired += fire(target)
        for priority, _seq, target in entries:
            if priority >= PRIORITY_NORMAL:
                fired += fire(target)
        if time in self._late:
            # An early event scheduled an off-priority event at *time*
            # while the bucket still held it (so nothing was pushed):
            # requeue the time rather than orphan the entry.
            heapq.heappush(self._times, time)
        return fired

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` if queue is empty."""
        times = self._times
        buckets = self._buckets
        late = self._late
        while times:
            time = times[0]
            bucket = buckets.get(time)
            entries = late.get(time) if late else None
            if bucket is None and entries is None:
                heapq.heappop(times)  # stale duplicate
                continue
            # Assemble the time's entries in order and fire the first
            # live one, leaving the rest queued (slow, test-only path).
            ordered: list = []
            if entries:
                entries = sorted(entries, key=lambda item: (item[0], item[1]))
                ordered += [
                    ("late", e) for e in entries if e[0] < PRIORITY_NORMAL
                ]
            if bucket:
                ordered += [("bucket", t) for t in bucket]
            if entries:
                ordered += [
                    ("late", e) for e in entries if e[0] >= PRIORITY_NORMAL
                ]
            fired = False
            consumed = 0
            for kind, item in ordered:
                consumed += 1
                target = item if kind == "bucket" else item[2]
                self._now = time
                if self._fire_target(target):
                    fired = True
                    break
            # Drop the consumed prefix from the underlying structures.
            for kind, item in ordered[:consumed]:
                if kind == "bucket":
                    bucket.remove(item)
                else:
                    late[time].remove(item)
            if bucket is not None and not bucket:
                buckets.pop(time, None)
            if late and time in late and not late[time]:
                late.pop(time)
            if time not in buckets and time not in late:
                heapq.heappop(times)
            if fired:
                self._events_processed += 1
                return True
        return False

    def run(self, until: int | None = None) -> None:
        """Run events until the queue drains or *until* is reached.

        When *until* is given, events at exactly *until* fire and time
        is then advanced to *until* even if the last event fires
        earlier, mirroring "run for this long".  Both modes share one
        loop: pop a time, dispatch its whole bucket inline.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        if self._closed:
            raise SimulationError("simulator is closed")
        self._running = True
        fired = 0
        bounded = until is not None
        times = self._times
        buckets = self._buckets
        late = self._late
        bucket_pop = buckets.pop
        pool_append = self._pool.append
        handle_class = EventHandle
        pop = heapq.heappop
        try:
            while times:
                time = pop(times)
                if bounded and time > until:
                    heapq.heappush(times, time)
                    break
                if late and time in late:
                    # Rare: off-priority events at this time.
                    self._now = time
                    fired += self._dispatch_time(time)
                    continue
                bucket = bucket_pop(time, None)
                if bucket is None:
                    continue  # stale duplicate
                self._now = time
                for target in bucket:
                    if target.__class__ is handle_class:
                        if not target._cancelled:
                            callback = target._callback
                            target._callback = None
                            fired += 1
                            callback()
                        if target._pooled:
                            target._callback = None
                            pool_append(target)
                    else:
                        target()
                        fired += 1
            if bounded and until > self._now:
                self._now = until
        finally:
            self._events_processed += fired
            self._running = False

    def close(self) -> None:
        """Drop every pending event and the handle freelist.

        The queued callbacks are what keep a finished world's objects
        reachable from the kernel; after closing, :meth:`run` raises
        :class:`SimulationError`.  :attr:`now` and
        :attr:`events_processed` keep their values.
        """
        self._closed = True
        self._times.clear()
        self._buckets.clear()
        self._late.clear()
        self._pool.clear()

    def pending_count(self) -> int:
        """Number of live (non-cancelled) events in the queue."""
        count = 0
        for bucket in self._buckets.values():
            for target in bucket:
                if target.__class__ is EventHandle:
                    if not target._cancelled:
                        count += 1
                else:
                    count += 1
        for entries in self._late.values():
            for _priority, _seq, target in entries:
                if target.__class__ is EventHandle:
                    if not target._cancelled:
                        count += 1
                else:
                    count += 1
        return count

    def __repr__(self) -> str:
        return (
            f"Simulator(now={format_duration(self._now)}, "
            f"pending={self.pending_count()})"
        )
