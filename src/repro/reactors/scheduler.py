"""The tag-ordered reactor scheduler.

Executes the reactor program event by event: at each tag, all
simultaneous events become present triggers, the triggered reactions
run in APG level order (ties broken by a stable assembly order, so the
logical behaviour is identical for every platform seed), ports are
cleared, and the next tag is processed.

Two drivers share this core:

* :meth:`ReactorScheduler.run_fast` — logical time only; physical time
  is defined to equal the current tag.  For pure reactor programs and
  unit tests.
* :meth:`ReactorScheduler.sim_thread_body` — a generator executed as a
  simulated-platform thread.  Events are processed only once the
  platform's physical clock passes their tag (the reactor model's
  in-order processing rule for sporadically scheduled actions), reaction
  bodies consume simulated CPU time, and deadlines are measured against
  the physical clock — faithfully reproducing how the paper's C++
  runtime behaves on its evaluation boards.

Hot-path notes (the sim-kernel throughput overhaul): event records are
mutable ``__slots__`` objects recycled through a freelist, ready-queue
membership is a flag on the reaction instead of a side set, one mutable
:class:`ReactionContext` is reused across invocations, and the per-tag
dispatch loops are inlined batches rather than per-reaction method
calls.  None of this changes the order of reactions, trace records or
RNG draws — bit-exactness is pinned by the kernel-fingerprint
regression tests.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any

from repro.errors import DeadlineViolation, ReactorError, SchedulingError
from repro.obs import context as obs_context
from repro.obs.bus import TRACK_REACTORS
from repro.reactors.action import LogicalAction, PhysicalAction, Timer
from repro.reactors.ports import Port
from repro.reactors.reaction import Reaction, ReactionContext
from repro.time.tag import FOREVER, NEVER, Tag

if TYPE_CHECKING:
    from repro.reactors.environment import Environment


class _Event:
    """A scheduled occurrence of a trigger (or delayed port value).

    Mutable and recycled through the scheduler's freelist — one of the
    two per-event allocations the throughput overhaul removed (the
    other being the ready-set entry).
    """

    __slots__ = ("target", "value")

    def __init__(self, target: Any, value: Any) -> None:
        self.target = target  # TriggerBase or Port
        self.value = value


class ReactorScheduler:
    """Event queue + per-tag execution for one environment."""

    def __init__(self, environment: "Environment") -> None:
        self._env = environment
        self._queue: list[tuple[Tag, int, _Event]] = []
        self._sequence = 0
        self._current_tag: Tag = NEVER
        self._start_time: int = 0
        self._stop_tag: Tag = FOREVER
        self._started = False
        self._terminated = False
        self._physical_fast = 0
        #: Ports/triggers to clear once the current tag completes.
        self._to_clear: list[Any] = []
        self._ready: list[tuple[int, int, Reaction]] = []
        #: Freelist of recycled event records.
        self._event_pool: list[_Event] = []
        #: Reusable invocation context (bodies never nest or retain it).
        self._ctx = ReactionContext(self, None, NEVER)
        self.tags_processed = 0
        self.reactions_executed = 0
        # Sim-mode plumbing, populated by sim_thread_body.
        self._platform = None
        self._condvar = None
        # Multi-worker execution: effects of concurrently running
        # reactions are buffered per reaction and applied in APG order.
        self._active_buffer: list | None = None

    # -- introspection ------------------------------------------------------

    @property
    def current_tag(self) -> Tag:
        """The tag currently (or most recently) being processed."""
        return self._current_tag

    @property
    def start_time(self) -> int:
        """Logical time origin (physical time at startup in sim mode)."""
        return self._start_time

    @property
    def terminated(self) -> bool:
        """Whether shutdown has completed."""
        return self._terminated

    def physical_time(self) -> int:
        """Physical time: the platform clock, or the tag time in fast mode."""
        if self._platform is not None:
            return self._platform.local_now()
        return self._physical_fast

    def close(self) -> None:
        """Drop the pending events, the ready queue and the event freelist."""
        self._queue.clear()
        self._ready.clear()
        self._event_pool.clear()

    # -- event insertion -----------------------------------------------------------

    def _push(self, tag: Tag, target: Any, value: Any) -> None:
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.target = target
            event.value = value
        else:
            event = _Event(target, value)
        heapq.heappush(self._queue, (tag, self._sequence, event))
        self._sequence += 1

    def _next_tag(self) -> Tag | None:
        if not self._queue:
            return None
        return self._queue[0][0]

    def schedule_logical(
        self,
        action: LogicalAction | PhysicalAction,
        value: Any,
        extra_delay: int,
        current: Tag,
    ) -> Tag:
        """Schedule an action from within a reaction."""
        if extra_delay < 0:
            raise SchedulingError("extra_delay must be non-negative")
        if isinstance(action, PhysicalAction):
            return self.schedule_physical(action, value, extra_delay)
        tag = current.delay(action.min_delay + extra_delay)
        if self._active_buffer is not None:
            self._active_buffer.append(("event", tag, action, value))
        else:
            self._push(tag, action, value)
        return tag

    def schedule_physical(
        self, action: PhysicalAction, value: Any, extra_delay: int = 0
    ) -> Tag:
        """Schedule a physical action from outside the reactor program.

        Tagged with the physical time observed now (plus delays), clamped
        to be after the last processed tag so events are never inserted
        into the program's past.
        """
        if extra_delay < 0:
            raise SchedulingError("extra_delay must be non-negative")
        time = self.physical_time() + action.min_delay + extra_delay
        tag = Tag(max(time, self._start_time), 0)
        if tag <= self._current_tag:
            tag = self._current_tag.delay(0)
        o = obs_context.ACTIVE
        if o is not None and o.flows is not None:
            o.flows.bind_event(value)
        self._push(tag, action, value)
        self._wake()
        return tag

    def schedule_at_tag(
        self, action: LogicalAction | PhysicalAction, value: Any, tag: Tag
    ) -> tuple[Tag, bool]:
        """Insert an event with an *explicit* tag from outside the program.

        This is the PTIDES-style arrival path used by DEAR transactors: a
        network message carries tag ``t``; the receiving transactor
        inserts an event at ``t + L + E`` and the scheduler's rule of not
        processing events before physical time passes their tag provides
        the safe-to-process wait.

        If *tag* is not after the last processed tag, the bounded-latency
        / clock-sync assumption was violated; the event is re-tagged to
        the earliest possible tag and the second return value is ``True``
        so the caller can surface the observable error.
        """
        late = False
        if tag <= self._current_tag:
            tag = self._current_tag.delay(0)
            late = True
        o = obs_context.ACTIVE
        if o is not None and o.flows is not None:
            o.flows.bind_event(value)
        self._push(tag, action, value)
        self._wake()
        return tag, late

    def set_port(self, port: Port, value: Any, tag: Tag) -> None:
        """Set *port* at *tag* and propagate through connections.

        Under multi-worker execution the effect is buffered and applied
        after the level barrier, in APG order, so concurrent reactions
        produce the same logical behaviour as sequential execution.
        """
        if self._active_buffer is not None:
            self._active_buffer.append(("set", port, value, tag))
            return
        self._propagate(port, value, tag)

    def request_stop(self) -> None:
        """Stop at the earliest opportunity (next microstep)."""
        candidate = (
            self._current_tag.delay(0)
            if self._current_tag > NEVER
            else Tag(self._start_time, 0)
        )
        if candidate < self._stop_tag:
            self._stop_tag = candidate
        self._wake()

    def _wake(self) -> None:
        """Wake the sim-mode scheduler thread, if any."""
        if self._platform is not None and self._condvar is not None:
            self._platform.scheduler.external_notify_all(self._condvar)

    # -- startup -------------------------------------------------------------------

    def _initialize(self, start_time: int) -> None:
        if self._started:
            raise ReactorError("environment already executed")
        self._started = True
        self._start_time = start_time
        self._physical_fast = start_time
        if self._env.trace_origin is not None:
            self._env.trace.origin = self._env.trace_origin
        else:
            self._env.trace.origin = start_time
        if self._env.timeout_ns is not None:
            self._stop_tag = min(
                self._stop_tag, Tag(start_time + self._env.timeout_ns, 0)
            )
        start_tag = Tag(start_time, 0)
        for reactor in self._env.all_reactors():
            if reactor.startup.triggered_reactions:
                self._push(start_tag, reactor.startup, None)
            for timer in reactor._timers:
                self._push(Tag(start_time + timer.offset, 0), timer, None)

    # -- per-tag processing ------------------------------------------------------------

    def _pop_tag_events(self, tag: Tag) -> list[_Event]:
        queue = self._queue
        pop = heapq.heappop
        events = []
        while queue and queue[0][0] == tag:
            events.append(pop(queue)[2])
        return events

    def _propagate(self, port: Port, value: Any, tag: Tag) -> None:
        """Make *port* (and its zero-delay closure) present with *value*."""
        to_clear = self._to_clear
        first = len(to_clear)
        stack = [port]
        while stack:
            current = stack.pop()
            current._put(value)
            to_clear.append(current)
            for reaction in current.triggered_reactions:
                if not reaction._queued:
                    reaction._queued = True
                    heapq.heappush(
                        self._ready, (reaction.level, reaction.order_key, reaction)
                    )
            stack.extend(current.downstream)
            for downstream, delay in current.delayed_downstream:
                self._push(tag.delay(delay), downstream, value)
        # The closure's ports, in propagation order: one "set" record
        # each, all sharing a single rendering of the value.
        self._env.trace.port_sets(tag, to_clear[first:], value)

    def _enqueue_reaction(self, reaction: Reaction) -> None:
        if reaction._queued:
            return
        reaction._queued = True
        heapq.heappush(self._ready, (reaction.level, reaction.order_key, reaction))

    def _begin_tag(self, tag: Tag, events: list[_Event]) -> None:
        """Mark triggers present (shutdown merged in); recycle *events*."""
        self._current_tag = tag
        self.tags_processed += 1
        if tag >= self._stop_tag:
            for reactor in self._env.all_reactors():
                if reactor.shutdown.triggered_reactions:
                    reactor.shutdown._put(None)
                    self._to_clear.append(reactor.shutdown)
                    for reaction in reactor.shutdown.triggered_reactions:
                        self._enqueue_reaction(reaction)
        o = obs_context.ACTIVE
        flows = None if o is None else o.flows
        to_clear = self._to_clear
        for event in events:
            if flows is not None:
                flow = flows.event_arrived(event.value)
                if flow is not None:
                    flows.hop(
                        flow, "reactor", f"tag {self._env.name}", self._obs_now()
                    )
            target = event.target
            if isinstance(target, Port):
                self._propagate(target, event.value, tag)
                continue
            target._put(event.value)
            to_clear.append(target)
            for reaction in target.triggered_reactions:
                self._enqueue_reaction(reaction)
            if isinstance(target, Timer) and target.period is not None:
                self._push(tag.delay(target.period), target, None)
        pool = self._event_pool
        for event in events:
            event.target = None
            event.value = None
            pool.append(event)

    def _finish_tag(self) -> None:
        for element in self._to_clear:
            element._clear()
        self._to_clear.clear()

    def _obs_now(self) -> int:
        """Global simulation time for event stamps (tag time in fast mode)."""
        if self._platform is not None:
            return self._platform.sim.now
        return self._physical_fast

    def _invoke(self, reaction: Reaction, tag: Tag, record_trace: bool = True) -> bool:
        """Run one reaction body (or its deadline handler).

        Returns ``True`` when the body ran (``False``: deadline handler).
        With ``record_trace=False`` the "reaction" trace record is left
        to the caller — the multi-worker path emits it at the ordered
        effect-application phase so traces are independent of worker
        completion order.
        """
        context = self._ctx
        context._reaction = reaction
        context.tag = tag
        reaction.invocations += 1
        self.reactions_executed += 1
        o = obs_context.ACTIVE
        if o is not None:
            o.metrics.counter("reactor.reactions").inc()
            o.metrics.histogram("reactor.lag_ns").observe(
                max(self.physical_time() - tag.time, 0)
            )
        deadline = reaction.deadline
        if deadline is not None:
            lag = self.physical_time() - tag.time
            if lag > deadline.duration_ns:
                reaction.deadline_violations += 1
                self._env.trace.deadline_miss(tag, reaction.fqn, lag)
                if o is not None:
                    o.metrics.counter("reactor.deadline_misses").inc()
                    o.bus.instant(
                        TRACK_REACTORS,
                        f"deadline-miss {reaction.fqn}",
                        self._obs_now(),
                        o.wall_ns(),
                        lag_ns=lag,
                        deadline_ns=deadline.duration_ns,
                    )
                if deadline.handler is None:
                    raise DeadlineViolation(reaction.fqn, lag)
                deadline.handler(context)
                return False
            if o is not None:
                o.metrics.histogram("reactor.deadline_slack_ns").observe(
                    deadline.duration_ns - lag
                )
        if record_trace:
            self._env.trace.reaction(tag, reaction.fqn)
        reaction.body(context)
        return True

    # -- fast driver -------------------------------------------------------------------

    def run_fast(self) -> None:
        """Run to completion in logical time (no platform).

        The per-tag reaction batch is drained in one inlined dispatch
        loop — the fast-mode path the sim driver's zero-cost batches
        generalize.
        """
        self._initialize(start_time=0)
        ready = self._ready
        pop = heapq.heappop
        invoke = self._invoke
        while True:
            tag = self._next_tag()
            if tag is None:
                # Queue drained: stop at the configured point, or right
                # after the last processed tag if none was configured.
                if self._stop_tag == FOREVER:
                    self._stop_tag = (
                        self._current_tag.delay(0)
                        if self._current_tag > NEVER
                        else Tag(self._start_time, 0)
                    )
                tag = self._stop_tag
            if tag >= self._stop_tag:
                tag = self._stop_tag
            if tag.time > self._physical_fast:
                self._physical_fast = tag.time
            self._begin_tag(tag, self._pop_tag_events(tag))
            while ready:
                reaction = pop(ready)[2]
                reaction._queued = False
                invoke(reaction, tag)
            self._finish_tag()
            if tag >= self._stop_tag:
                break
        self._terminated = True

    # -- sim driver --------------------------------------------------------------------

    def sim_thread_body(self, platform, workers: int = 1):
        """Generator: the scheduler loop as a simulated-platform thread.

        With ``workers > 1``, independent reactions of one APG level run
        concurrently on a pool of worker threads — the paper's
        "transparently exploiting concurrency in the APG".  Effects are
        buffered per reaction and applied at the level barrier in APG
        order, so the logical behaviour (and trace) is identical to
        sequential execution; only physical timing improves.

        Zero-cost reactions batch through the same inlined loop as
        :meth:`run_fast`; only reactions with a modelled execution cost
        pay a coroutine switch (the ``Compute`` yield that advances the
        platform clock — required for exact deadline/lag semantics).
        """
        from repro.sim.process import Compute, Wait, WaitUntil

        self._platform = platform
        condvar = self._condvar = platform.condvar(f"{self._env.name}.rt.cv")
        exec_rng = platform.rng(f"reactor.exec.{self._env.name}")
        pool = _WorkerPool(self, platform, workers) if workers > 1 else None
        self._initialize(start_time=platform.local_now())
        queue = self._queue
        ready = self._ready
        pop = heapq.heappop
        invoke = self._invoke
        local_now = platform.local_now
        # The waits take no mutex: this thread is the event queue's only
        # consumer, and every producer (physical actions, DEAR arrivals,
        # stop requests) pushes and notifies from kernel context, so
        # nothing runs between a check of the queue and the wait after it.
        # The CPU scheduler reads a syscall's fields as it is yielded and
        # keeps no reference, so this thread yields the same three records.
        idle = Wait(condvar, None)
        wait_until = WaitUntil(condvar, None, 0)
        compute = Compute(0)
        while True:
            tag = queue[0][0] if queue else None
            if tag is None or tag > self._stop_tag:
                if self._stop_tag != FOREVER:
                    tag = self._stop_tag
                else:
                    # Idle: wait for a physical action or a stop request.
                    yield idle
                    continue
            if tag.time > local_now():
                wait_until.local_deadline = tag.time
                yield wait_until
                continue  # re-evaluate: an earlier event may have arrived
            self._begin_tag(tag, self._pop_tag_events(tag))
            if pool is None:
                o = obs_context.ACTIVE
                while ready:
                    reaction = pop(ready)[2]
                    reaction._queued = False
                    cost = reaction.sample_exec_time(exec_rng)
                    if cost > 0:
                        compute.duration_ns = cost
                        yield compute
                    invoke(reaction, tag)
                    if o is not None:
                        now = platform.sim.now
                        o.bus.span(
                            TRACK_REACTORS,
                            reaction.fqn,
                            now - cost,
                            now,
                            o.wall_ns(),
                            tag_time=tag.time,
                            cost_ns=cost,
                        )
            else:
                yield from self._run_tag_parallel(pool, tag, exec_rng)
            self._finish_tag()
            if tag >= self._stop_tag:
                break
        if pool is not None:
            pool.shutdown()
        self._terminated = True

    def _pop_level_batch(self) -> list[Reaction]:
        """Pop all ready reactions sharing the lowest level, in APG order."""
        ready = self._ready
        if not ready:
            return []
        level = ready[0][0]
        batch = []
        while ready and ready[0][0] == level:
            reaction = heapq.heappop(ready)[2]
            reaction._queued = False
            batch.append(reaction)
        return batch

    def _run_tag_parallel(self, pool: "_WorkerPool", tag: Tag, exec_rng):
        """Process one tag level by level on the worker pool."""
        while True:
            batch = self._pop_level_batch()
            if not batch:
                return
            # Costs are sampled here, in deterministic APG order, so the
            # RNG stream consumption does not depend on worker timing.
            jobs = [
                (reaction, reaction.sample_exec_time(exec_rng)) for reaction in batch
            ]
            results = yield from pool.run_level(jobs, tag)
            # Barrier passed: record and apply in APG order, so the trace
            # and effect application are independent of worker timing.
            for reaction, buffer, body_ran in results:
                if body_ran:
                    self._env.trace.reaction(tag, reaction.fqn)
                for effect in buffer:
                    if effect[0] == "set":
                        _kind, port, value, set_tag = effect
                        self._propagate(port, value, set_tag)
                    else:
                        _kind, event_tag, action, value = effect
                        self._push(event_tag, action, value)


class _WorkerPool:
    """Worker threads executing one APG level's reactions concurrently.

    The scheduler hands a level's reactions (with pre-sampled costs) to
    the pool and blocks until all of them completed.  Each worker runs
    ``Compute(cost)`` and then the reaction body with effect buffering
    enabled; the buffers are returned to the scheduler for ordered
    application.
    """

    def __init__(self, scheduler: ReactorScheduler, platform, workers: int):
        from repro.sim.sync import MessageQueue

        self._scheduler = scheduler
        self._platform = platform
        self._jobs: MessageQueue = platform.queue(
            f"{scheduler._env.name}.rt.jobs"
        )
        self._mutex = platform.mutex(f"{scheduler._env.name}.rt.batch.mutex")
        self._done_cv = platform.condvar(f"{scheduler._env.name}.rt.batch.cv")
        self._outstanding = 0
        self._results: list[tuple[Reaction, list]] = []
        self._workers = workers
        for index in range(workers):
            platform.spawn(
                f"reactor.{scheduler._env.name}.worker{index}", self._worker_loop()
            )

    def run_level(self, jobs, tag: Tag):
        """Generator (scheduler thread): run *jobs*, return their buffers."""
        from repro.sim.process import Acquire, Release, Wait

        self._outstanding = len(jobs)
        self._results = []
        for reaction, cost in jobs:
            self._jobs.post((reaction, cost, tag))
        yield Acquire(self._mutex)
        while self._outstanding > 0:
            yield Wait(self._done_cv, self._mutex)
        yield Release(self._mutex)
        results = self._results
        self._results = []
        results.sort(key=lambda item: item[0].order_key)
        return results

    def _worker_loop(self):
        from repro.sim.process import Acquire, Compute, Notify, Release

        scheduler = self._scheduler
        while True:
            job = yield from self._jobs.get()
            if job is None:
                return
            reaction, cost, tag = job
            if cost > 0:
                yield Compute(cost)
            buffer: list = []
            scheduler._active_buffer = buffer
            try:
                # _invoke runs atomically between yields, so the shared
                # reusable context is safe for workers too.
                body_ran = scheduler._invoke(reaction, tag, record_trace=False)
            finally:
                scheduler._active_buffer = None
            o = obs_context.ACTIVE
            if o is not None:
                now = self._platform.sim.now
                o.bus.span(
                    TRACK_REACTORS,
                    reaction.fqn,
                    now - cost,
                    now,
                    o.wall_ns(),
                    tag_time=tag.time,
                    cost_ns=cost,
                )
            yield Acquire(self._mutex)
            self._results.append((reaction, buffer, body_ran))
            self._outstanding -= 1
            yield Notify(self._done_cv)
            yield Release(self._mutex)

    def shutdown(self) -> None:
        """Stop the workers (one queue sentinel per worker)."""
        for _ in range(self._workers):
            self._jobs.post(None)
