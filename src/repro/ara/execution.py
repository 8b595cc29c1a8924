"""A minimal execution manager.

AP's execution management starts processes in dependency order and
tracks their reported state.  The reproduction needs only a thin
version: ordered startup with per-process start offsets (the *phase
offsets* that Section IV.A identifies as the main driver of the brake
assistant's error-rate variance) and state reporting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.errors import AraError
from repro.sim.world import World


class ProcessState(enum.Enum):
    """Reported execution state of a managed process."""

    IDLE = "idle"
    STARTING = "starting"
    RUNNING = "running"
    TERMINATED = "terminated"


@dataclass
class ManagedProcess:
    """Bookkeeping for one process under execution management."""

    name: str
    start: Callable[[], None]
    dependencies: tuple[str, ...]
    start_offset_ns: int
    state: ProcessState = ProcessState.IDLE


class ExecutionManager:
    """Starts registered processes respecting declared dependencies."""

    def __init__(self, world: World) -> None:
        self._world = world
        self._processes: dict[str, ManagedProcess] = {}

    def register(
        self,
        name: str,
        start: Callable[[], None],
        dependencies: tuple[str, ...] = (),
        start_offset_ns: int = 0,
    ) -> None:
        """Register a process; *start* is invoked at its start time."""
        if name in self._processes:
            raise AraError(f"process {name!r} already registered")
        self._processes[name] = ManagedProcess(
            name, start, dependencies, start_offset_ns
        )

    def state(self, name: str) -> ProcessState:
        """Reported state of process *name*."""
        return self._processes[name].state

    def report_running(self, name: str) -> None:
        """Process self-report: startup complete."""
        self._processes[name].state = ProcessState.RUNNING

    def report_terminated(self, name: str) -> None:
        """Process self-report: shut down."""
        self._processes[name].state = ProcessState.TERMINATED

    def start_all(self) -> None:
        """Schedule every process's start, dependencies first.

        Dependency order is enforced by start time: a process never
        starts earlier than any of its dependencies; its configured
        offset is applied on top.
        """
        order = self._topological_order()
        start_times: dict[str, int] = {}
        for name in order:
            process = self._processes[name]
            earliest = 0
            for dependency in process.dependencies:
                earliest = max(earliest, start_times[dependency])
            start_time = earliest + process.start_offset_ns
            start_times[name] = start_time

            def launch(process=process):
                process.state = ProcessState.STARTING
                process.start()

            self._world.sim.post_after(start_time, launch)

    def _topological_order(self) -> list[str]:
        visited: dict[str, int] = {}
        order: list[str] = []

        def visit(name: str) -> None:
            mark = visited.get(name, 0)
            if mark == 1:
                raise AraError(f"dependency cycle involving {name!r}")
            if mark == 2:
                return
            if name not in self._processes:
                raise AraError(f"unknown dependency {name!r}")
            visited[name] = 1
            for dependency in self._processes[name].dependencies:
                visit(dependency)
            visited[name] = 2
            order.append(name)

        for name in self._processes:
            visit(name)
        return order
