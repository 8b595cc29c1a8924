"""The fault injector: applies a :class:`FaultPlan` to a running world.

Placement and determinism
-------------------------

The injector sits behind one attribute load on the hot path
(``Switch.send`` asks ``self._faults`` once per frame; with no plan
installed that is a ``None`` check and nothing else).  When consulted,
it decides each probabilistic fault with a **stateless PRF**: a SHA-256
hash of ``(plan.seed, fault stream, kind, flow, per-flow frame index)``
mapped to ``[0, 1)``.  Three properties follow:

* *no perturbation* — the experiment's RNG tree is never touched, so
  the ``net``/``scheduler``/``exec.*`` streams draw exactly the
  sequence they would without faults (the switch still samples its
  latency model for dropped frames, keeping the draw order identical);
* *cross-seed stability* — the decision depends only on the plan and
  the frame's ordinal within its flow, so the same plan hits the same
  frames under every world seed and regardless of how unrelated
  traffic interleaves;
* *replay & shrink* — fired faults are recorded as ``decision-trace/v1``
  records (stream ``faults/...``).  Replaying a trace turns every
  decision into a table lookup keyed ``(stream, kind, flow, index)``,
  so **any subset** of the recorded faults is itself a valid fault
  schedule — the property :func:`repro.explore.shrink.ddmin` needs to
  minimize a failing fault trace.

Time-window faults (partitions, node outages, clock steps) are pure
functions of simulated time and need no randomness; in replay mode they
too are gated by the table so they participate in shrinking.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.errors import SimulationError
from repro.explore.decisions import DecisionRecord, DecisionTrace
from repro.faults.plan import FaultPlan
from repro.obs import context as obs_context
from repro.obs.bus import TRACK_FAULTS

if TYPE_CHECKING:
    from repro.network.switch import Frame
    from repro.sim.world import World

__all__ = ["FaultVerdict", "FaultInjector", "install_fault_plan", "replay"]

_PRF_DENOMINATOR = float(2**64)


def _unit(seed: int, stream: str, kind: str, name: str, index: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for one decision site."""
    digest = hashlib.sha256(
        f"{seed}/{stream}/{kind}/{name}/{index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / _PRF_DENOMINATOR


@dataclass(slots=True)
class FaultVerdict:
    """What the injector decided for one frame (``None`` = untouched)."""

    #: Fault kind that kills the frame (``drop`` / ``partition-drop`` /
    #: ``outage-drop``), or ``None`` if it is delivered.
    drop: str | None = None
    #: Deliver the frame with a corrupted payload (dropped at the NIC
    #: like a bad-FCS frame, but visibly: the receiver counts it).
    corrupt: bool = False
    #: Extra transport delay (latency spike or partition defer).
    extra_delay_ns: int = 0
    #: Exempt the frame from per-flow FIFO so later frames overtake it.
    bypass_fifo: bool = False
    #: If not ``None``, deliver a second copy this much later.
    duplicate_delay_ns: int | None = None


class FaultInjector:
    """Applies one :class:`FaultPlan`, recording every fired fault."""

    def __init__(
        self,
        plan: FaultPlan,
        replay: DecisionTrace | None = None,
        universe: DecisionTrace | None = None,
        checkpointer=None,
    ):
        self.plan = plan
        self.trace = DecisionTrace(
            base_seed=plan.seed,
            experiment="faults",
            params={"label": plan.label},
        )
        #: Fired-fault counters by kind (``drop``, ``spike``, ...).
        self.counters: dict[str, int] = {}
        self._flow_index: dict[str, int] = {}
        self._replay: dict[tuple[str, str, str, int], int] | None = None
        if replay is not None:
            self._replay = {
                (r.stream, r.kind, r.name, r.bound): r.choice
                for r in replay.records
            }
        # Snapshot-fork seam: *universe* is the full fired-fault trace a
        # replayed subset was drawn from.  Its records fire in
        # chronological order in *any* subset replay, so the number of
        # universe records whose site has been consulted is a decision
        # index: two subsets agreeing on membership of records < k are
        # bit-identical up to record k's site — a valid capture point.
        self._universe: list[DecisionRecord] | None = (
            list(universe.records) if universe is not None else None
        )
        self._universe_keys = (
            [(r.stream, r.kind, r.name, r.bound) for r in self._universe]
            if self._universe is not None
            else None
        )
        self._decided = 0
        self._ckpt = checkpointer

    # -- decision core ------------------------------------------------------

    def _adopt(self, bits) -> None:
        """A forked continuation swaps in its own subset's membership."""
        assert self._universe is not None
        self._replay = {
            (r.stream, r.kind, r.name, r.bound): r.choice
            for r, bit in zip(self._universe, bits)
            if bit
        }

    def _gate(self, key: tuple[str, str, str, int]) -> bool:
        """Replay-table lookup, advancing the universe decision cursor."""
        keys = self._universe_keys
        if keys is not None:
            decided = self._decided
            if decided < len(keys) and keys[decided] == key:
                # Capture *before* this record's membership takes
                # effect: holder state depends only on records < cursor.
                ckpt = self._ckpt
                if ckpt is not None and ckpt.wants(decided):
                    ckpt.reached(decided, self._adopt)
                self._decided = decided + 1
        return key in self._replay

    def _fires(
        self, stream: str, kind: str, name: str, index: int, probability: float
    ) -> bool:
        """Decide one probabilistic site (PRF in live mode, table in replay)."""
        if self._replay is not None:
            return self._gate((stream, kind, name, index))
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return _unit(self.plan.seed, stream, kind, name, index) < probability

    def _window_fires(self, stream: str, kind: str, name: str, index: int) -> bool:
        """Decide one time-window site (always fires live, gated in replay)."""
        if self._replay is not None:
            return self._gate((stream, kind, name, index))
        return True

    def _record(
        self, stream: str, kind: str, name: str, index: int, choice: int, now: int
    ) -> None:
        records = self.trace.records
        records.append(
            DecisionRecord(len(records), stream, kind, name, index, choice)
        )
        self.counters[kind] = self.counters.get(kind, 0) + 1
        o = obs_context.ACTIVE
        if o is not None:
            o.metrics.counter(f"faults.{kind}").inc()
            o.bus.instant(
                TRACK_FAULTS,
                f"{kind} {name}",
                now,
                o.wall_ns(),
                frame=index,
                choice=choice,
            )

    # -- the Switch seam ----------------------------------------------------

    def on_send(self, frame: "Frame", now: int, route=None) -> FaultVerdict | None:
        """Consulted by :meth:`Switch.send` once per frame, after the
        latency draw.  Returns ``None`` when no fault touches the frame.

        *route* is the frame's resolved :class:`~repro.network.topology.Route`
        on a fabric (``None`` on the legacy single switch): outages of
        intermediate switches and link-scoped partitions consult it.
        """
        name = f"{frame.src_host}->{frame.dst_host}:{frame.dst_port}"
        index = self._flow_index.get(name, 0)
        self._flow_index[name] = index + 1
        plan = self.plan
        verdict: FaultVerdict | None = None
        route_links = None if route is None else route.link_keys

        for i, outage in enumerate(plan.outages):
            hit = outage.down(frame.src_host, now) or outage.down(frame.dst_host, now)
            if not hit and route is not None:
                hit = any(outage.down(sw, now) for sw in route.switches)
            if not hit:
                continue
            stream = f"faults/outage{i}"
            if self._window_fires(stream, "outage-drop", name, index):
                self._record(stream, "outage-drop", name, index, 1, now)
                return FaultVerdict(drop="outage-drop")

        defer_ns = 0
        for i, partition in enumerate(plan.partitions):
            if not partition.severs(
                frame.src_host, frame.dst_host, now, route_links=route_links
            ):
                continue
            stream = f"faults/part{i}"
            if partition.mode == "drop":
                if self._window_fires(stream, "partition-drop", name, index):
                    self._record(stream, "partition-drop", name, index, 1, now)
                    return FaultVerdict(drop="partition-drop")
                continue
            held = partition.end_ns - now
            if self._window_fires(stream, "partition-defer", name, index):
                self._record(stream, "partition-defer", name, index, held, now)
                defer_ns = max(defer_ns, held)
        if defer_ns:
            verdict = FaultVerdict(extra_delay_ns=defer_ns)

        for i, fault in enumerate(plan.link_faults):
            if not fault.matches(frame.src_host, frame.dst_host, frame.dst_port, now):
                continue
            stream = f"faults/link{i}"
            if self._fires(stream, "drop", name, index, fault.drop_probability):
                self._record(stream, "drop", name, index, 1, now)
                return FaultVerdict(drop="drop")
            if self._fires(stream, "corrupt", name, index, fault.corrupt_probability):
                self._record(stream, "corrupt", name, index, 1, now)
                verdict = verdict or FaultVerdict()
                verdict.corrupt = True
            if self._fires(stream, "spike", name, index, fault.spike_probability):
                self._record(stream, "spike", name, index, fault.spike_ns, now)
                verdict = verdict or FaultVerdict()
                verdict.extra_delay_ns += fault.spike_ns
            if self._fires(stream, "reorder", name, index, fault.reorder_probability):
                self._record(
                    stream, "reorder", name, index, fault.reorder_delay_ns, now
                )
                verdict = verdict or FaultVerdict()
                verdict.extra_delay_ns += fault.reorder_delay_ns
                verdict.bypass_fifo = True
            if self._fires(
                stream, "duplicate", name, index, fault.duplicate_probability
            ):
                self._record(
                    stream, "duplicate", name, index, fault.duplicate_delay_ns, now
                )
                verdict = verdict or FaultVerdict()
                verdict.duplicate_delay_ns = fault.duplicate_delay_ns
        return verdict

    # -- reporting ----------------------------------------------------------

    @property
    def fired(self) -> int:
        """How many faults actually fired so far."""
        return len(self.trace.records)

    def summary(self) -> dict:
        """Picklable per-run digest (rides along in sweep results).

        Includes the full fired-fault trace (``decision-trace/v1``), so a
        sweep result is enough to replay or ddmin-shrink the schedule —
        no need to keep the world alive.
        """
        return {
            "plan": self.plan.describe(),
            "fault_seed": self.plan.seed,
            "fired": self.fired,
            "counters": dict(sorted(self.counters.items())),
            "trace_fingerprint": self.trace.fingerprint(),
            "trace": self.trace.to_dict(),
        }


#: The :func:`replay` in effect: ``FaultInjector`` keyword arguments,
#: or ``None`` for live PRF decisions.
_active_replay: dict | None = None


@contextmanager
def replay(
    trace: DecisionTrace,
    *,
    universe: DecisionTrace | None = None,
    checkpointer=None,
) -> Iterator[None]:
    """Replay *trace* in every fault plan installed in this block.

    Each :func:`install_fault_plan` inside the block answers its
    decisions from *trace* instead of the plan's PRF stream (any subset
    of a recorded trace is valid — see module docstring), so a runner
    replays a fault schedule without knowing it.  *universe* (the full
    trace *trace* was drawn from) plus *checkpointer* let the snapshot
    engine capture copy-on-write checkpoints between replayed membership
    decisions (see :mod:`repro.snapshot`).  The previous replay, usually
    none, is restored on exit, even on error.
    """
    global _active_replay
    previous = _active_replay
    _active_replay = {
        "replay": trace,
        "universe": universe,
        "checkpointer": checkpointer,
    }
    try:
        yield
    finally:
        _active_replay = previous


def install_fault_plan(world: "World", plan: FaultPlan) -> FaultInjector:
    """Attach *plan* to a built (not yet run) world.

    Wires the injector into the network switch, schedules node
    crash/restart windows as scheduler freeze/thaw events, and schedules
    clock faults against the target platforms' physical clocks.  Returns
    the injector; read ``injector.trace`` / ``injector.summary()`` after
    the run.  Under an active :func:`replay` the injector replays that
    trace; otherwise it decides live.
    """
    injector = FaultInjector(plan, **(_active_replay or {}))
    world.fault_injector = injector
    switch = world.network
    if switch is not None:
        switch.attach_faults(injector)
    elif plan.link_faults or plan.partitions or plan.outages:
        raise SimulationError(
            "fault plan needs a network, but the world has none attached"
        )
    topology = None if switch is None else switch.config.topology
    if topology is not None and topology.is_trivial:
        topology = None  # a trivial topology never routes, so never faults
    fabric_switches = set() if topology is None else set(topology.switches)
    fabric_links = (
        set() if topology is None else {link.key for link in topology.links}
    )
    for partition in plan.partitions:
        for key in partition.links:
            if key not in fabric_links:
                raise SimulationError(
                    f"partition cuts unknown fabric link {key!r}"
                )

    def _freeze(host: str, index: int, start_ns: int):
        def apply() -> None:
            platform = world.platforms.get(host)
            if platform is None:
                return
            platform.scheduler.freeze()
            injector._record(f"faults/outage{index}", "crash", host, 0, 1, start_ns)

        return apply

    def _thaw(host: str, index: int, end_ns: int):
        def apply() -> None:
            platform = world.platforms.get(host)
            if platform is None:
                return
            platform.scheduler.thaw()
            injector._record(f"faults/outage{index}", "restart", host, 0, 1, end_ns)

        return apply

    for i, outage in enumerate(plan.outages):
        if outage.host in fabric_switches:
            # A dead fabric switch has no scheduler to freeze: its whole
            # effect is that routed frames die in ``on_send``.
            continue
        if outage.host not in world.platforms:
            raise SimulationError(f"outage targets unknown host {outage.host!r}")
        world.sim.post_at(outage.start_ns, _freeze(outage.host, i, outage.start_ns))
        world.sim.post_at(outage.end_ns, _thaw(outage.host, i, outage.end_ns))

    def _clock_fault(index: int, fault) -> None:
        platform = world.platforms.get(fault.host)
        if platform is None:
            return
        platform.clock.apply_fault(
            world.sim.now, step_ns=fault.step_ns, drift_ppb=fault.drift_ppb
        )
        injector._record(
            f"faults/clock{index}", "clock-fault", fault.host, 0,
            fault.step_ns, fault.at_ns,
        )

    for i, fault in enumerate(plan.clock_faults):
        if fault.host not in world.platforms:
            raise SimulationError(
                f"clock fault targets unknown host {fault.host!r}"
            )
        world.sim.post_at(fault.at_ns, lambda i=i, f=fault: _clock_fault(i, f))

    return injector
