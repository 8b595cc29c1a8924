"""The :class:`World`: simulator + platforms + network in one container.

A world is the unit of an *experiment run*: it owns the event queue, the
root RNG seed and every platform.  Creating two worlds with the same seed
and running the same program yields identical traces; different seeds
sample different interleavings/latencies — this is how the reproduction
turns the paper's "run the demonstrator 20 times" into "run 20 seeds".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import DeadlockError
from repro.sim.core import Simulator
from repro.sim.platform import Platform, PlatformConfig
from repro.sim.rng import RngTree
from repro.time.duration import Duration

if TYPE_CHECKING:
    from repro.network.switch import Switch


class World:
    """Container for one simulated distributed system."""

    def __init__(self, seed: int = 0) -> None:
        self.sim = Simulator()
        self.rng = RngTree(seed)
        self.platforms: dict[str, Platform] = {}
        self._network: "Switch | None" = None
        #: Installed fault injector (``repro.faults``), if any.
        self.fault_injector = None

    @property
    def seed(self) -> int:
        """The experiment seed this world was created with."""
        return self.rng.seed

    @property
    def now(self) -> int:
        """Current global simulation time."""
        return self.sim.now

    def add_platform(
        self, name: str, config: PlatformConfig | None = None
    ) -> Platform:
        """Create and register a platform."""
        if name in self.platforms:
            raise ValueError(f"platform {name!r} already exists")
        platform = Platform(name, self.sim, self.rng, config)
        self.platforms[name] = platform
        return platform

    def platform(self, name: str) -> Platform:
        """Look up a platform by name."""
        return self.platforms[name]

    def attach_network(self, network: "Switch") -> None:
        """Register the network switch connecting the platforms."""
        self._network = network

    @property
    def network(self) -> "Switch | None":
        """The network switch, if one was attached."""
        return self._network

    @property
    def fault_summary(self) -> dict | None:
        """The fault injector's per-run digest, or ``None`` without one."""
        if self.fault_injector is None:
            return None
        return self.fault_injector.summary()

    # -- running ---------------------------------------------------------------

    def run_for(self, duration: Duration) -> None:
        """Advance the simulation by *duration* from the current time."""
        self.sim.run(until=self.sim.now + duration)

    def run_until(self, time: int) -> None:
        """Advance the simulation to absolute global *time*."""
        self.sim.run(until=time)

    def run_to_completion(self, check_deadlock: bool = True) -> None:
        """Run until no events remain.

        With *check_deadlock* (the default), raise :class:`DeadlockError`
        if threads are still blocked when the event queue drains — that
        means they can never be woken again.
        """
        self.sim.run()
        if not check_deadlock:
            return
        stuck = [
            thread
            for platform in self.platforms.values()
            for thread in platform.scheduler.blocked_threads()
        ]
        if stuck:
            names = ", ".join(thread.name for thread in stuck)
            raise DeadlockError(f"threads blocked with no pending events: {names}")

    def __repr__(self) -> str:
        return (
            f"World(seed={self.seed}, platforms={sorted(self.platforms)}, "
            f"now={self.sim.now})"
        )
