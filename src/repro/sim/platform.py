"""Simulated compute platforms.

A :class:`Platform` models one ECU/board (in the paper: a MinnowBoard
Turbot): a handful of cores, a physical clock, an OS scheduler and the
processes/threads that run on it.  Platforms are created through
:class:`repro.sim.world.World`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.sim.core import Simulator
from repro.sim.process import SimThread, SleepUntil
from repro.sim.rng import RngTree
from repro.sim.scheduler import CpuScheduler
from repro.sim.sync import CondVar, MessageQueue, Mutex
from repro.time.clock import ClockModel, PhysicalClock
from repro.time.duration import MS, US


@dataclass(frozen=True, slots=True)
class PlatformConfig:
    """Static configuration of a simulated platform.

    Defaults approximate the paper's evaluation boards: a quad-core Atom
    with mild OS timing noise and a synchronized clock.
    """

    num_cores: int = 4
    clock: ClockModel = field(default_factory=ClockModel.perfect)
    #: Random run-queue latency added when a thread is dispatched.
    dispatch_jitter_ns: int = 20 * US
    #: Maximum lateness of OS timers (timers never fire early).
    timer_jitter_ns: int = 100 * US
    #: Dispatch simultaneously-ready threads in wake order (FIFO) instead
    #: of drawing the order from the scheduler's RNG stream.  Models a
    #: time-triggered / fixed-priority dispatcher: with zero jitter the
    #: wake order — and hence every send interleaving — is a pure
    #: function of the workload, independent of the world seed.
    deterministic_dispatch: bool = False


class PeriodicTask:
    """Handle for a periodic callback registered on a platform."""

    def __init__(self, name: str, period_ns: int) -> None:
        self.name = name
        self.period_ns = period_ns
        self.activations = 0
        self.overruns = 0
        self._cancelled = False

    def cancel(self) -> None:
        """Stop the task at its next activation boundary."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled


class Platform:
    """One simulated board: cores + clock + scheduler + threads."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        rng_tree: RngTree,
        config: PlatformConfig | None = None,
    ) -> None:
        self.name = name
        self.config = config or PlatformConfig()
        self._sim = sim
        self._rng_tree = rng_tree.child(f"platform.{name}")
        self.clock = PhysicalClock(
            self.config.clock, self._rng_tree.stream("clock")
        )
        self.scheduler = CpuScheduler(
            sim,
            self.clock,
            self._rng_tree.stream("scheduler"),
            num_cores=self.config.num_cores,
            dispatch_jitter_ns=self.config.dispatch_jitter_ns,
            timer_jitter_ns=self.config.timer_jitter_ns,
            deterministic_dispatch=self.config.deterministic_dispatch,
        )
        #: Arbitrary per-platform attachments (NICs, daemons...).
        self.attachments: dict[str, Any] = {}

    # -- time ----------------------------------------------------------------

    @property
    def sim(self) -> Simulator:
        """The global simulator this platform runs in."""
        return self._sim

    def local_now(self) -> int:
        """Current local clock time (deterministic mapping, no jitter)."""
        return self.clock.local_time(self._sim.now)

    def rng(self, name: str):
        """A named RNG stream scoped to this platform."""
        return self._rng_tree.stream(name)

    # -- threads ---------------------------------------------------------------

    def spawn(
        self,
        name: str,
        generator: Generator[Any, Any, Any],
        start_delay_ns: int = 0,
    ) -> SimThread:
        """Start a simulated thread on this platform."""
        return self.scheduler.spawn(f"{self.name}.{name}", generator, start_delay_ns)

    def periodic(
        self,
        name: str,
        period_ns: int,
        body_factory: Callable[[], Generator[Any, Any, Any]],
        offset_ns: int = 0,
        start_delay_ns: int = 0,
    ) -> PeriodicTask:
        """Register a periodic callback, like an OS timer driving SWC logic.

        The *body_factory* is invoked once per activation and must return
        a generator (the simulated work).  Activations are anchored to the
        local clock at ``offset + k * period``; if the body overruns its
        period the missed activations are skipped and counted in
        :attr:`PeriodicTask.overruns`, which is how a typical timer-driven
        SWC loop behaves.
        """
        if period_ns <= 0:
            raise ValueError("period must be positive")
        task = PeriodicTask(name, period_ns)

        def loop() -> Generator[Any, Any, None]:
            anchor = self.local_now() + offset_ns
            activation = 0
            while not task.cancelled:
                yield SleepUntil(anchor + activation * period_ns)
                if task.cancelled:
                    return
                task.activations += 1
                yield from body_factory()
                activation += 1
                local = self.local_now()
                while anchor + activation * period_ns <= local:
                    activation += 1
                    task.overruns += 1

        self.spawn(f"periodic.{name}", loop(), start_delay_ns)
        return task

    # -- synchronization factories --------------------------------------------------

    def mutex(self, name: str = "mutex") -> Mutex:
        """Create a mutex (namespaced to this platform for diagnostics)."""
        return Mutex(f"{self.name}.{name}")

    def condvar(self, name: str = "condvar") -> CondVar:
        """Create a condition variable."""
        return CondVar(f"{self.name}.{name}")

    def queue(
        self,
        name: str = "queue",
        capacity: int | None = None,
        overflow: str = "error",
    ) -> MessageQueue:
        """Create a message queue bound to this platform's scheduler."""
        return MessageQueue(
            self.scheduler, capacity=capacity, name=f"{self.name}.{name}",
            overflow=overflow,
        )

    def __repr__(self) -> str:
        return f"Platform({self.name!r}, cores={self.config.num_cores})"


#: A convenient "calm" configuration for unit tests: single core, no jitter,
#: perfect clock — scheduling still randomized but timing exact.
CALM = PlatformConfig(
    num_cores=1, clock=ClockModel.perfect(), dispatch_jitter_ns=0, timer_jitter_ns=0
)

#: Approximation of the paper's evaluation board (Intel Atom E3845, 4 cores).
MINNOWBOARD = PlatformConfig(
    num_cores=4,
    clock=ClockModel.perfect(),
    dispatch_jitter_ns=50 * US,
    timer_jitter_ns=500 * US,
)

#: A deliberately noisy platform for stress tests.
NOISY = PlatformConfig(
    num_cores=2,
    clock=ClockModel(offset_ns=0, drift_ppb=20_000, read_jitter_ns=2 * US),
    dispatch_jitter_ns=200 * US,
    timer_jitter_ns=2 * MS,
)
