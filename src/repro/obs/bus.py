"""The structured event bus: typed spans and instants on named tracks.

Events carry *simulation-time* timestamps (integer nanoseconds — the
same clock the experiment runs on) plus a wall-clock stamp taken at
record time, so a timeline viewer can show both where simulated time
went and how long the host actually took.  Tracks group events the way
the runtime is layered; the four standard tracks below are what the
Perfetto export maps to one pseudo-thread each.

The bus itself is deliberately dumb: an append-only list of slotted
records.  All policy (sorting, timeline mapping, JSON shape) lives in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "Event",
    "EventBus",
    "TRACK_SCHEDULER",
    "TRACK_REACTORS",
    "TRACK_DEAR",
    "TRACK_NETWORK",
    "TRACK_FAULTS",
]

#: OS-level scheduling: dispatches, preemptions, mutex grants.
TRACK_SCHEDULER = "scheduler"
#: Reactor runtime: reaction execution spans, deadline misses.
TRACK_REACTORS = "reactors"
#: DEAR middleware: safe-to-process waits, STP violations, bypass.
TRACK_DEAR = "dear"
#: SOME/IP + switch: frames in flight, drops, queue overflows.
TRACK_NETWORK = "network"
#: Injected faults (``repro.faults``): drops, partitions, crashes, clock steps.
TRACK_FAULTS = "faults"


@dataclass(frozen=True, slots=True)
class Event:
    """One recorded occurrence.

    ``phase`` follows the Chrome ``trace_event`` vocabulary the export
    targets: ``"X"`` is a complete span (``ts`` .. ``ts + dur``),
    ``"i"`` an instant.  ``ts``/``dur`` are simulation nanoseconds;
    ``wall_ns`` is host time relative to the observation start, or
    ``None`` on a bus whose timestamps are host time already (the fleet
    trace of :mod:`repro.obs.fleet`).
    """

    track: str
    name: str
    phase: str
    ts: int
    dur: int = 0
    wall_ns: int | None = 0
    args: dict[str, Any] | None = None


class EventBus:
    """Append-only store of :class:`Event` records."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[Event] = []

    def span(
        self,
        track: str,
        name: str,
        start_ns: int,
        end_ns: int,
        wall_ns: int | None = 0,
        **args: Any,
    ) -> None:
        """Record a complete span ``[start_ns, end_ns]`` on *track*.

        A span that would end before it starts (possible when a caller
        derives the start by subtracting a cost) is clamped to zero
        duration rather than rejected — observability must never raise
        into the observed program.
        """
        if end_ns < start_ns:
            start_ns = end_ns
        self.events.append(
            Event(
                track,
                name,
                "X",
                start_ns,
                end_ns - start_ns,
                wall_ns,
                args or None,
            )
        )

    def instant(
        self,
        track: str,
        name: str,
        ts_ns: int,
        wall_ns: int | None = 0,
        **args: Any,
    ) -> None:
        """Record a point event at *ts_ns* on *track*."""
        self.events.append(Event(track, name, "i", ts_ns, 0, wall_ns, args or None))

    def tracks(self) -> list[str]:
        """Sorted names of all tracks that saw at least one event."""
        return sorted({event.track for event in self.events})

    def by_track(self, track: str) -> list[Event]:
        """All events of one track, in record order."""
        return [event for event in self.events if event.track == track]

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"EventBus(events={len(self.events)}, tracks={self.tracks()})"
