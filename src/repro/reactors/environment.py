"""Environment: assembly, validation and execution entry points.

An :class:`Environment` owns a reactor program: top-level reactors, the
connections between their ports, and the scheduler that executes it.
After construction and :meth:`Environment.connect` calls, the program is
frozen by :meth:`Environment.assemble` (implicit in the run methods),
which validates connections, builds the APG and assigns levels.

Run modes:

* :meth:`Environment.execute` — fast mode, logical time only;
* :meth:`Environment.start` — spawn the scheduler as a thread on a
  simulated platform; tags couple to the platform's physical clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import AssemblyError, ReactorError
from repro.reactors.graph import assign_levels, build_edges
from repro.reactors.ports import Port, validate_connection
from repro.reactors.scheduler import ReactorScheduler
from repro.reactors.telemetry import Trace

if TYPE_CHECKING:
    from repro.reactors.base import Reactor
    from repro.sim.platform import Platform
    from repro.sim.process import SimThread


class Environment:
    """Container and execution context for one reactor program.

    Args:
        name: diagnostic name (also namespaces sim-mode RNG streams).
        timeout: optional logical duration after which the program shuts
            down (measured from startup).
        trace_enabled: record the logical trace (on by default; turn off
            for long benchmark runs where only counters matter).
    """

    def __init__(
        self,
        name: str = "main",
        timeout: int | None = None,
        trace_enabled: bool = True,
        trace_origin: int | None = None,
    ) -> None:
        self.name = name
        self.timeout_ns = timeout
        self.trace = Trace(trace_enabled)
        #: When set, trace tags are normalized against this fixed origin
        #: instead of the runtime's (possibly jittered) start time.  Use
        #: for programs whose tags are anchored to external inputs (for
        #: example physical sensor arrivals) rather than to startup.
        self.trace_origin = trace_origin
        self.scheduler = ReactorScheduler(self)
        self._top_level: list["Reactor"] = []
        self._assembled = False

    # -- construction --------------------------------------------------------

    def _register_top_level(self, reactor: "Reactor") -> None:
        self._top_level.append(reactor)

    def _check_mutable(self) -> None:
        if self._assembled:
            raise AssemblyError(
                f"environment {self.name!r} is already assembled; reactors "
                f"and connections must be created before execution"
            )

    def connect(self, src: Port, dst: Port, after: int | None = None) -> None:
        """Connect *src* to *dst*, optionally with a logical delay.

        ``after=None`` is a zero-delay connection (creates an APG edge);
        ``after=n`` delivers events *n* nanoseconds later in logical time
        (``after=0`` delays by one microstep and, like any delayed
        connection, breaks causality cycles).
        """
        self._check_mutable()
        validate_connection(src, dst)
        dst.upstream = src
        if after is None:
            src.downstream.append(dst)
        else:
            if after < 0:
                raise AssemblyError("connection delay must be non-negative")
            src.delayed_downstream.append((dst, after))

    def connect_multiports(self, src, dst, after: int | None = None) -> None:
        """Connect two equal-width multiports channel by channel."""
        if len(src) != len(dst):
            raise AssemblyError(
                f"multiport width mismatch: {len(src)} vs {len(dst)}"
            )
        for src_channel, dst_channel in zip(src, dst):
            self.connect(src_channel, dst_channel, after=after)

    # -- assembly ------------------------------------------------------------------

    def assemble(self) -> None:
        """Freeze the program: validate, build the APG, assign levels."""
        if self._assembled:
            return
        if not self._top_level:
            raise AssemblyError(f"environment {self.name!r} has no reactors")
        self._validate_names()
        for reaction in self.all_reactions():
            for source in reaction.sources:
                if isinstance(source, Port):
                    source.dependent_reactions.append(reaction)
        edges = build_edges(self._top_level)
        assign_levels(edges)
        for order, reaction in enumerate(self.all_reactions()):
            reaction.order_key = order
        self._assembled = True

    def _validate_names(self) -> None:
        seen: set[str] = set()
        for reactor in self.all_reactors():
            if reactor.fqn in seen:
                raise AssemblyError(f"duplicate reactor name {reactor.fqn!r}")
            seen.add(reactor.fqn)
            local: set[str] = set()
            elements = (
                [port.name for port in reactor._inputs]
                + [port.name for port in reactor._outputs]
                + [action.name for action in reactor._actions]
                + [timer.name for timer in reactor._timers]
                + [reaction.name for reaction in reactor._reactions]
            )
            for name in elements:
                if name in local:
                    raise AssemblyError(
                        f"duplicate element name {name!r} in reactor "
                        f"{reactor.fqn!r}"
                    )
                local.add(name)

    # -- traversal -------------------------------------------------------------------

    def all_reactors(self) -> list["Reactor"]:
        """Every reactor in the program."""
        result: list["Reactor"] = []
        for top in self._top_level:
            result.extend(top.all_reactors())
        return result

    def all_reactions(self) -> list[Any]:
        """Every reaction, in stable assembly order."""
        result: list[Any] = []
        for top in self._top_level:
            result.extend(top.all_reactions())
        return result

    # -- execution ---------------------------------------------------------------------

    def execute(self) -> None:
        """Fast mode: run to completion in logical time."""
        self.assemble()
        self.scheduler.run_fast()

    def start(self, platform: "Platform", workers: int = 1) -> "SimThread":
        """Sim mode: run as a thread on *platform*; returns the thread.

        The environment's logical time origin is the platform's local
        clock when the thread first runs; deadlines, physical actions and
        safe-to-process waits are measured against that clock.

        With ``workers > 1``, independent reactions of the same APG level
        execute concurrently on that many worker threads (bounded, of
        course, by the platform's core count) — logically identical to
        sequential execution, but with lower physical lag.
        """
        if workers < 1:
            raise ReactorError("workers must be at least 1")
        self.assemble()
        return platform.spawn(
            f"reactor.{self.name}",
            self.scheduler.sim_thread_body(platform, workers),
        )

    def close(self) -> Trace:
        """Hand the trace off and drop the scheduler's pending work.

        Returns the trace, which the environment no longer holds
        (:attr:`trace` becomes ``None``): a caller keeping the returned
        :class:`Trace` keeps every record, and otherwise the rows are
        freed as soon as it is dropped, without waiting for a cyclic
        collection of the program's reactors.
        """
        trace, self.trace = self.trace, None
        self.scheduler.close()
        return trace

    def request_stop(self) -> None:
        """Shut the program down at the next opportunity."""
        self.scheduler.request_stop()

    @property
    def terminated(self) -> bool:
        """Whether the program has completed shutdown."""
        return self.scheduler.terminated

    def __repr__(self) -> str:
        return (
            f"Environment({self.name!r}, reactors={len(self.all_reactors())}, "
            f"assembled={self._assembled})"
        )
