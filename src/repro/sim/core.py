"""The discrete-event simulation kernel.

A :class:`Simulator` owns a timestamp-bucketed event queue.  Events are
totally ordered by ``(time, insertion order)``, so the kernel itself
introduces **no** nondeterminism — all modelled nondeterminism comes
from explicit RNG draws in higher layers.  A caller that needs one
event before another at the same instant schedules it first (the LET
executor posts each window's publishes before the next window's reads).

Hot-path design (the sim-kernel throughput overhaul)
----------------------------------------------------

The queue is a dict of *time buckets* plus a heap of pending times:
scheduling appends to the current bucket (amortizing the heap push over
every event sharing a timestamp, the dominant shape produced by zero-
delay trampolines and same-tag fan-out) and the run loop dispatches a
whole bucket per heap pop.  :meth:`Simulator.run` has one such loop
for both modes: ``run()`` drains the queue and ``run(until=t)`` (what
``World.run_for`` calls) stops before the first time past ``t``.
There are two ways to schedule:

* :meth:`Simulator.post_at` / :meth:`Simulator.post_after` — a bare
  callback: no handle, no cancellation.  Scheduler continuations,
  dispatch trampolines and network deliveries use this; it is what
  ``BENCH_sim_kernel_event_throughput`` measures.
* :meth:`Simulator.timer_at` / :meth:`Simulator.cancel_timer` — a
  cancellable event on a handle from a slot/freelist pool, recycled
  once the kernel is done with it.  The caller must drop its reference
  when the timer fires or right after cancelling it;
  :meth:`Simulator.cancel_timer` takes a pending handle out of the
  queue at once (the CPU scheduler's sleep/timeout paths and SOME/IP
  method timeouts do exactly that).
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.errors import SimulationError
from repro.time.duration import format_duration


class EventHandle:
    """Pooled handle to a :meth:`Simulator.timer_at` event.

    The handle is live while its ``_callback`` is set; firing or
    cancelling clears it.
    """

    __slots__ = ("time", "_callback")

    def __init__(self, time: int, callback: Callable[[], None]) -> None:
        self.time = time
        self._callback = callback


class Simulator:
    """Deterministic event-queue simulator over integer-nanosecond time.

    ``now`` is the current global simulation time in nanoseconds and
    ``events_processed`` the number of events executed so far.
    """

    __slots__ = (
        "now",
        "events_processed",
        "_times",
        "_buckets",
        "_running",
        "_pool",
        "_closed",
    )

    def __init__(self) -> None:
        self.now = 0
        self.events_processed = 0
        #: Heap of timestamps with at least one scheduled event.
        self._times: list[int] = []
        #: time -> targets (callables or handles) in insertion order.
        self._buckets: dict[int, list] = {}
        self._running = False
        #: Freelist of recycled :meth:`timer_at` handles.
        self._pool: list[EventHandle] = []
        self._closed = False

    # -- scheduling ---------------------------------------------------------

    def timer_at(self, time: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule a cancellable event on a pooled handle.

        The handle is recycled through a freelist once the event fires
        or is cancelled, so the caller must not retain a reference past
        that point — see the module docstring for the ownership contract.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {format_duration(time)}, "
                f"now is {format_duration(self.now)}"
            )
        pool = self._pool
        if pool:
            handle = pool.pop()
            handle.time = time
            handle._callback = callback
        else:
            handle = EventHandle(time, callback)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = bucket = []
            heapq.heappush(self._times, time)
        bucket.append(handle)
        return handle

    def cancel_timer(self, handle: EventHandle) -> None:
        """Cancel a :meth:`timer_at` handle and recycle it at once.

        A pending handle leaves its bucket and goes back to the freelist
        now, instead of waiting in the queue until its time; a bucket it
        leaves empty goes too.  A handle whose bucket is being dispatched
        is only cleared, and the kernel recycles it as it passes.  A
        handle that already fired is left alone.  The caller drops its
        reference either way.
        """
        if handle._callback is None:
            return
        handle._callback = None
        bucket = self._buckets.get(handle.time)
        if bucket is not None:
            try:
                bucket.remove(handle)
            except ValueError:
                return  # in the bucket being dispatched
            if not bucket:
                del self._buckets[handle.time]
            self._pool.append(handle)

    def post_at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule a bare callback: no handle, no cancellation (fast path)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {format_duration(time)}, "
                f"now is {format_duration(self.now)}"
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback]
            heapq.heappush(self._times, time)
            return
        bucket.append(callback)

    def post_after(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule a bare callback after *delay* (fast path)."""
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback]
            heapq.heappush(self._times, time)
            return
        bucket.append(callback)

    # -- dispatch -----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` if queue is empty.

        The reference :meth:`run` is checked against: it fires the first
        entry of the earliest bucket, which stays queued (so a zero-delay
        repost joins its end) until it drains.  A queued bucket holds
        only live entries, since :meth:`cancel_timer` takes a pending
        handle out at once.
        """
        times = self._times
        buckets = self._buckets
        while times:
            time = times[0]
            bucket = buckets.get(time)
            if bucket is None:
                heapq.heappop(times)  # stale: a cancel emptied its bucket
                continue
            target = bucket.pop(0)
            if not bucket:
                del buckets[time]
                heapq.heappop(times)
            self.now = time
            if target.__class__ is EventHandle:
                callback = target._callback
                target._callback = None
                callback()
                self._pool.append(target)
            else:
                target()
            self.events_processed += 1
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
        bucket_pop = self._buckets.pop
        pool_append = self._pool.append
        handle_class = EventHandle
        pop = heapq.heappop
        try:
            while times:
                time = pop(times)
                if bounded and time > until:
                    heapq.heappush(times, time)
                    break
                bucket = bucket_pop(time, None)
                if bucket is None:
                    continue  # stale duplicate
                self.now = time
                for target in bucket:
                    if target.__class__ is handle_class:
                        callback = target._callback
                        if callback is not None:
                            target._callback = None
                            fired += 1
                            callback()
                        pool_append(target)
                    else:
                        target()
                        fired += 1
            if bounded and until > self.now:
                self.now = until
        finally:
            self.events_processed += fired
            self._running = False

    def close(self) -> None:
        """Drop every pending event and the handle freelist.

        The queued callbacks are what keep a finished world's objects
        reachable from the kernel; after closing, :meth:`run` raises
        :class:`SimulationError`.  ``now`` and ``events_processed`` keep
        their values.
        """
        self._closed = True
        self._times.clear()
        self._buckets.clear()
        self._pool.clear()

    def pending_count(self) -> int:
        """Number of events in the queue (a cancelled timer leaves it)."""
        return sum(len(bucket) for bucket in self._buckets.values())

    def __repr__(self) -> str:
        return (
            f"Simulator(now={format_duration(self.now)}, "
            f"pending={self.pending_count()})"
        )
