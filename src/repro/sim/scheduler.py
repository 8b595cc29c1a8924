"""Randomized multi-core CPU scheduler for simulated threads.

This is where the paper's **first source of nondeterminism** lives.  At
every scheduling decision — which ready thread gets a free core, which
mutex waiter is granted the lock, which condition-variable waiter a notify
wakes — the scheduler draws from a seeded RNG stream.  Real operating
systems make these choices based on load, cache state and interrupt
timing; drawing them randomly exercises the same set of interleavings
while remaining replayable from the experiment seed.

Two knobs add timing (rather than ordering) nondeterminism:

* ``dispatch_jitter_ns`` — a random delay between a thread being picked
  and it actually running (context-switch / run-queue latency);
* ``timer_jitter_ns`` — how late an OS timer may fire (timers never fire
  early).

Every decision is routed through a *decision source*: any object with
``pick_index(kind, candidates)``, ``jitter(kind, name, bound_ns)`` and
``preempt(name)`` methods.  ``candidates`` is the scheduler's own list
of :class:`~repro.sim.process.SimThread` objects (the ready queue, a
mutex's or a condvar's waiters), passed without a copy: a source reads
it (``candidates[i].name``) and must not mutate it.  Passing a plain
:class:`random.Random` wraps it in
:class:`repro.sim.rng.RandomDecisionSource`, whose draws are identical
to the historical ``randrange``/``randint`` sequence; :mod:`repro.explore`
substitutes recording/replaying/adversarial sources to turn the
scheduler into a systematic concurrency-testing tool.  The ``preempt``
query (answered with 0 by the default source) models the OS preempting
a just-dispatched thread for a bounded time — the lever PCT-style
exploration uses to force rare interleavings.

When the source is exactly the default one, the hot paths (dispatch
picks and jitter, mutex grants, notifies, timer jitter) run
:func:`~repro.sim.rng.randbelow`'s rejection loop inline on the
stream's bound ``getrandbits`` and skip the ``preempt`` query: the same
draws in the same order, without the method calls.  Every other source
is called through its methods.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Generator

from repro.errors import SimulationError
from repro.obs import context as obs_context
from repro.obs.bus import TRACK_SCHEDULER
from repro.sim.core import Simulator
from repro.sim.process import (
    Acquire,
    Compute,
    Exit,
    Join,
    Notify,
    NotifyAll,
    Release,
    SimThread,
    Sleep,
    SleepUntil,
    ThreadState,
    Wait,
    WaitResult,
    WaitUntil,
    Yield,
)
from repro.sim.rng import RandomDecisionSource
from repro.sim.sync import CondVar, Mutex
from repro.time.clock import PhysicalClock

_DONE = ThreadState.DONE


class CpuScheduler:
    """Schedules simulated threads onto a platform's cores."""

    def __init__(
        self,
        sim: Simulator,
        clock: PhysicalClock,
        rng: random.Random,
        num_cores: int = 1,
        dispatch_jitter_ns: int = 0,
        timer_jitter_ns: int = 0,
        deterministic_dispatch: bool = False,
    ) -> None:
        if num_cores < 1:
            raise ValueError("a platform needs at least one core")
        self._sim = sim
        self._clock = clock
        # A decision source may be passed directly; a plain Random is
        # adapted (precisely preserving the historical draw sequence).
        if hasattr(rng, "pick_index"):
            self._decisions = rng
        else:
            self._decisions = RandomDecisionSource(rng)
        #: The stream's bound ``getrandbits`` while the decisions are
        #: exactly the default source's: the hot paths then run
        #: :func:`~repro.sim.rng.randbelow`'s loop inline (same draws)
        #: and skip the ``preempt`` query, which that source answers
        #: with 0.  ``None`` for every other source.
        self._getrandbits = (
            self._decisions._rng.getrandbits
            if type(self._decisions) is RandomDecisionSource
            else None
        )
        self._cores: list[SimThread | None] = [None] * num_cores
        self._dispatch_jitter_ns = dispatch_jitter_ns
        self._timer_jitter_ns = timer_jitter_ns
        self._deterministic_dispatch = deterministic_dispatch
        self._ready: list[SimThread] = []
        self._threads: list[SimThread] = []
        self._dispatch_pending = False
        self._frozen = False
        #: Threads whose continuation arrived while frozen (crash window).
        self._parked: list[SimThread] = []
        self.context_switches = 0

    # -- public API --------------------------------------------------------

    @property
    def threads(self) -> list[SimThread]:
        """All threads ever spawned on this scheduler."""
        return list(self._threads)

    @property
    def num_cores(self) -> int:
        """Number of cores this scheduler multiplexes."""
        return len(self._cores)

    def local_now(self) -> int:
        """Current local (platform clock) time."""
        return self._clock.local_time(self._sim.now)

    def spawn(
        self,
        name: str,
        generator: Generator[Any, Any, Any],
        start_delay_ns: int = 0,
    ) -> SimThread:
        """Create a thread and make it runnable after *start_delay_ns*."""
        thread = SimThread(name=name, generator=generator)
        # One continuation pair per thread, allocated here so compute
        # continuations and sleep wakeups never build a per-event
        # closure; a partial calls straight into the bound method.
        thread.resume_cb = partial(self._step, thread)
        thread.wake_cb = partial(self._wake_sleeper, thread)
        self._threads.append(thread)
        if start_delay_ns < 0:
            raise ValueError("start delay must be non-negative")

        def make_ready() -> None:
            thread.state = ThreadState.READY
            self._ready.append(thread)
            self._request_dispatch()

        self._sim.post_after(start_delay_ns, make_ready)
        return thread

    def external_notify(self, condvar: CondVar) -> None:
        """Wake one waiter of *condvar* from a non-thread context."""
        self._notify_one(condvar)

    def external_notify_all(self, condvar: CondVar) -> None:
        """Wake every waiter of *condvar* from a non-thread context."""
        while condvar.waiters:
            self._notify_one(condvar)

    @property
    def frozen(self) -> bool:
        """Whether the platform is halted (fault-injected crash window)."""
        return self._frozen

    def freeze(self) -> None:
        """Halt the platform: nothing executes until :meth:`thaw`.

        Models a fail-stop node crash with warm restart (``repro.faults``
        node outages): thread state is preserved, but no thread runs and
        no dispatch decision is drawn — so a crash window consumes zero
        draws from the scheduler's RNG stream.  Timers that expire while
        frozen park their threads on the ready queue; they run, late, on
        thaw.
        """
        self._frozen = True

    def thaw(self) -> None:
        """Resume the platform after :meth:`freeze`.

        Continuations that arrived during the freeze (compute phases
        completing, timer wakeups) resume in their original event order.
        """
        if not self._frozen:
            return
        self._frozen = False
        parked, self._parked = self._parked, []
        for thread in parked:
            self._sim.post_after(0, thread.resume_cb)
        self._request_dispatch()

    def blocked_threads(self) -> list[SimThread]:
        """Threads currently blocked on a mutex/condvar/join."""
        return [t for t in self._threads if t.state is ThreadState.BLOCKED]

    def close(self) -> None:
        """Close every thread's generator and drop its continuations.

        Part of :meth:`repro.sim.world.World.close`: suspended frames
        and the per-thread callback partials are what tie a finished
        run's objects into reference cycles.  Thread states are left as
        they were.
        """
        for thread in self._threads:
            thread.generator.close()
            thread.resume_cb = thread.wake_cb = thread.timeout_handle = None

    # -- dispatching --------------------------------------------------------

    def _request_dispatch(self) -> None:
        if self._dispatch_pending:
            return
        self._dispatch_pending = True
        self._sim.post_after(0, self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_pending = False
        ready = self._ready
        if not ready or self._frozen:
            return
        # Decision-source and core lookups are cached across the whole
        # dispatch burst (one trampoline event may place many threads).
        cores = self._cores
        decisions = self._decisions
        getrandbits = self._getrandbits
        dispatch_jitter_ns = self._dispatch_jitter_ns
        jitter_bits = (dispatch_jitter_ns + 1).bit_length()
        o = obs_context.ACTIVE
        while ready:
            if None not in cores:
                return
            core = cores.index(None)
            if self._deterministic_dispatch:
                # FIFO by wake order: no draw, so the scheduler stream's
                # sequence (and every platform without the flag) is
                # untouched — goldens for existing worlds stay stable.
                index = 0
            elif getrandbits is not None:
                count = len(ready)
                bits = count.bit_length()
                index = getrandbits(bits)
                while index >= count:
                    index = getrandbits(bits)
            else:
                index = decisions.pick_index("dispatch", ready)
            thread = ready.pop(index)
            thread.state = ThreadState.RUNNING
            thread.core = core
            cores[core] = thread
            self.context_switches += 1
            delay = 0
            preempt_ns = 0
            if getrandbits is not None:
                if dispatch_jitter_ns > 0:
                    delay = getrandbits(jitter_bits)
                    while delay > dispatch_jitter_ns:
                        delay = getrandbits(jitter_bits)
            else:
                if dispatch_jitter_ns > 0:
                    delay = decisions.jitter(
                        "dispatch", thread.name, dispatch_jitter_ns
                    )
                preempt_ns = decisions.preempt(thread.name)
            if o.enabled:
                now = self._sim.now
                o.metrics.counter("sched.dispatches").inc()
                o.metrics.histogram("sched.dispatch_delay_ns").observe(delay)
                o.bus.instant(
                    TRACK_SCHEDULER,
                    f"dispatch {thread.name}",
                    now,
                    o.wall_ns(),
                    core=core,
                    delay_ns=delay,
                )
                if preempt_ns > 0:
                    o.metrics.counter("sched.preemptions").inc()
                    o.metrics.histogram("sched.preempt_ns").observe(preempt_ns)
                    o.bus.instant(
                        TRACK_SCHEDULER,
                        f"preempt {thread.name}",
                        now,
                        o.wall_ns(),
                        preempt_ns=preempt_ns,
                    )
            delay += preempt_ns
            if delay > 0:
                self._sim.post_after(delay, thread.resume_cb)
            else:
                self._step(thread)

    def _release_core(self, thread: SimThread) -> None:
        if thread.core is not None:
            self._cores[thread.core] = None
            thread.core = None
        self._request_dispatch()

    # -- stepping a thread ---------------------------------------------------

    def _step(self, thread: SimThread) -> None:
        if thread.state is _DONE:
            return
        if self._frozen:
            # The node is down: park the continuation (the thread keeps
            # its core and resume value) and replay it on thaw.
            self._parked.append(thread)
            return
        value = thread.resume_value
        thread.resume_value = None
        send = thread.generator.send
        # Exact-class dispatch: syscalls are final records, and `is`
        # checks on the class are several times cheaper than the
        # equivalent isinstance() chain on this, the hottest loop in
        # the simulation.
        while True:
            try:
                syscall = send(value)
            except StopIteration as stop:
                self._finish(thread, stop.value)
                return
            value = None
            cls = syscall.__class__
            if cls is Compute:
                duration_ns = syscall.duration_ns
                if duration_ns <= 0:
                    if duration_ns == 0:
                        continue
                    raise SimulationError("compute duration must be non-negative")
                self._sim.post_after(duration_ns, thread.resume_cb)
                return
            if cls is Acquire:
                if self._try_acquire(thread, syscall.mutex):
                    continue
                return
            if cls is Release:
                self._do_release(thread, syscall.mutex)
                continue
            if cls is Notify:
                self._notify_one(syscall.condvar)
                continue
            if cls is Wait:
                self._do_wait(thread, syscall.condvar, syscall.mutex, None)
                return
            if cls is WaitUntil:
                self._do_wait(
                    thread, syscall.condvar, syscall.mutex, syscall.local_deadline
                )
                return
            if cls is Yield:
                self._release_core(thread)
                thread.state = ThreadState.READY
                self._ready.append(thread)
                return
            if cls is Sleep:
                local_target = self.local_now() + syscall.duration_ns
                self._sleep_until_local(thread, local_target)
                return
            if cls is SleepUntil:
                self._sleep_until_local(thread, syscall.local_time)
                return
            if cls is NotifyAll:
                while syscall.condvar.waiters:
                    self._notify_one(syscall.condvar)
                continue
            if cls is Join:
                target = syscall.thread
                if target.done:
                    value = target.result
                    continue
                target.joiners.append(thread)
                thread.state = ThreadState.BLOCKED
                self._release_core(thread)
                return
            if cls is Exit:
                thread.generator.close()
                self._finish(thread, syscall.value)
                return
            raise SimulationError(
                f"thread {thread.name!r} yielded unknown syscall {syscall!r}"
            )

    def _finish(self, thread: SimThread, result: Any) -> None:
        thread.result = result
        thread.state = ThreadState.DONE
        self._release_core(thread)
        for joiner in thread.joiners:
            joiner.resume_value = result
            joiner.state = ThreadState.READY
            self._ready.append(joiner)
        thread.joiners.clear()
        self._request_dispatch()

    # -- sleeping -------------------------------------------------------------

    def _sleep_until_local(self, thread: SimThread, local_time: int) -> None:
        self._release_core(thread)
        thread.state = ThreadState.SLEEPING
        global_target = self._clock.global_time_for(local_time)
        if global_target < self._sim.now:
            global_target = self._sim.now
        bound = self._timer_jitter_ns
        if bound > 0:
            getrandbits = self._getrandbits
            if getrandbits is not None:
                bits = (bound + 1).bit_length()
                jitter = getrandbits(bits)
                while jitter > bound:
                    jitter = getrandbits(bits)
            else:
                jitter = self._decisions.jitter("timer", thread.name, bound)
            global_target += jitter
        # Pooled handle: _wake_sleeper drops the reference as it fires,
        # so the kernel freelist can recycle it (see Simulator.timer_at).
        thread.timeout_handle = self._sim.timer_at(global_target, thread.wake_cb)

    def _wake_sleeper(self, thread: SimThread) -> None:
        thread.timeout_handle = None
        thread.state = ThreadState.READY
        self._ready.append(thread)
        self._request_dispatch()

    # -- mutexes ----------------------------------------------------------------

    def _try_acquire(self, thread: SimThread, mutex: Mutex) -> bool:
        if mutex.owner is thread:
            raise SimulationError(
                f"thread {thread.name!r} re-acquired non-reentrant {mutex!r}"
            )
        o = obs_context.ACTIVE
        if mutex.owner is None:
            mutex.owner = thread
            if o.enabled:
                o.scratch[("mutex_hold", id(mutex))] = self._sim.now
            return True
        mutex.waiters.append(thread)
        thread.state = ThreadState.BLOCKED
        thread.resume_value = None
        if o.enabled:
            o.metrics.counter("sched.mutex_contended").inc()
            o.scratch[("mutex_wait", id(thread))] = self._sim.now
        self._release_core(thread)
        return False

    def _do_release(self, thread: SimThread, mutex: Mutex) -> None:
        if mutex.owner is not thread:
            raise SimulationError(
                f"thread {thread.name!r} released {mutex!r} it does not hold"
            )
        mutex.owner = None
        o = obs_context.ACTIVE
        if o.enabled:
            acquired = o.scratch.pop(("mutex_hold", id(mutex)), None)
            if acquired is not None:
                o.metrics.histogram("sched.mutex_hold_ns").observe(
                    self._sim.now - acquired
                )
        self._grant_mutex(mutex)

    def _grant_mutex(self, mutex: Mutex) -> None:
        """Hand a free mutex to one randomly chosen waiter, if any."""
        waiters = mutex.waiters
        if mutex.owner is not None or not waiters:
            return
        getrandbits = self._getrandbits
        if getrandbits is not None:
            count = len(waiters)
            bits = count.bit_length()
            index = getrandbits(bits)
            while index >= count:
                index = getrandbits(bits)
        else:
            index = self._decisions.pick_index("mutex", waiters)
        waiter = waiters.pop(index)
        mutex.owner = waiter
        waiter.reacquire = None
        waiter.state = ThreadState.READY
        o = obs_context.ACTIVE
        if o.enabled:
            now = self._sim.now
            started = o.scratch.pop(("mutex_wait", id(waiter)), None)
            if started is not None:
                o.metrics.histogram("sched.mutex_wait_ns").observe(now - started)
            o.scratch[("mutex_hold", id(mutex))] = now
            o.metrics.counter("sched.mutex_grants").inc()
            o.bus.instant(
                TRACK_SCHEDULER,
                f"mutex-grant {waiter.name}",
                now,
                o.wall_ns(),
                waiters_left=len(mutex.waiters),
            )
        self._ready.append(waiter)
        self._request_dispatch()

    # -- condition variables -------------------------------------------------------

    def _do_wait(
        self,
        thread: SimThread,
        condvar: CondVar,
        mutex: Mutex | None,
        local_deadline: int | None,
    ) -> None:
        if mutex is not None:
            if mutex.owner is not thread:
                raise SimulationError(
                    f"thread {thread.name!r} waited on {condvar!r} "
                    f"without holding {mutex!r}"
                )
            mutex.owner = None
            o = obs_context.ACTIVE
            if o.enabled:
                acquired = o.scratch.pop(("mutex_hold", id(mutex)), None)
                if acquired is not None:
                    o.metrics.histogram("sched.mutex_hold_ns").observe(
                        self._sim.now - acquired
                    )
        thread.state = ThreadState.BLOCKED
        thread.reacquire = mutex
        condvar.waiters.append(thread)
        self._release_core(thread)
        if mutex is not None:
            self._grant_mutex(mutex)
        if local_deadline is not None:
            global_deadline = self._clock.global_time_for(local_deadline)
            if global_deadline < self._sim.now:
                global_deadline = self._sim.now
            thread.timeout_handle = self._sim.timer_at(
                global_deadline, partial(self._wait_timeout, thread, condvar)
            )

    def _notify_one(self, condvar: CondVar) -> None:
        waiters = condvar.waiters
        if not waiters:
            return
        getrandbits = self._getrandbits
        if getrandbits is not None:
            count = len(waiters)
            bits = count.bit_length()
            index = getrandbits(bits)
            while index >= count:
                index = getrandbits(bits)
        else:
            index = self._decisions.pick_index("notify", waiters)
        waiter = waiters.pop(index)
        self._resume_condvar_waiter(waiter, WaitResult.NOTIFIED)

    def _wait_timeout(self, thread: SimThread, condvar: CondVar) -> None:
        if thread not in condvar.waiters:
            return
        condvar.waiters.remove(thread)
        self._resume_condvar_waiter(thread, WaitResult.TIMEOUT)

    def _resume_condvar_waiter(self, waiter: SimThread, result: WaitResult) -> None:
        if waiter.timeout_handle is not None:
            self._sim.cancel_timer(waiter.timeout_handle)
            waiter.timeout_handle = None
        waiter.resume_value = result
        mutex = waiter.reacquire
        if mutex is not None:
            o = obs_context.ACTIVE
            if mutex.owner is not None:
                mutex.waiters.append(waiter)
                if o.enabled:
                    o.scratch[("mutex_wait", id(waiter))] = self._sim.now
                return
            mutex.owner = waiter
            waiter.reacquire = None
            if o.enabled:
                o.scratch[("mutex_hold", id(mutex))] = self._sim.now
        # Holding the mutex again, or a mutex-free wait: runnable now.
        waiter.state = ThreadState.READY
        self._ready.append(waiter)
        self._request_dispatch()
