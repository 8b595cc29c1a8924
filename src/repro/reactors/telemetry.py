"""Logical execution traces.

Determinism is a property we *check*, not just claim: every environment
records a logical trace — which reactions executed at which tags, what
values ports carried, which deadlines were violated.  Two runs of a
deterministic program (whatever the seed driving the platform
simulation) must produce byte-identical trace fingerprints; the
deterministic-brake-assistant benchmark asserts exactly that.

Physical quantities (lag, execution times) are deliberately excluded
from the fingerprint: they legitimately differ between runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from repro.time.tag import Tag


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One logical event in the trace."""

    tag: Tag
    kind: str  # "reaction" | "set" | "deadline-miss" | "stop"
    name: str
    value: str = ""

    def line(self) -> str:
        """Canonical one-line rendering (input to the fingerprint)."""
        tag = self.tag
        return _line(tag.time, tag.microstep, self.kind, self.name, self.value)


#: Rows hashed per ``update`` call: large enough to amortize the call,
#: small enough that fingerprinting a long trace does not hold a second
#: whole-trace copy of its text.
_HASH_BATCH = 512

#: Canonical one-line rendering of a row (the fingerprint's input).
_line = "{}.{} {} {} {}".format


def _render(value: Any) -> str:
    """Trace text of a port value: ``repr``, or ``""`` for the empty string.

    "No value" is decided from the type, never through the value's own
    ``__ne__``, so array-like values (whose comparison returns an array)
    render like any other.
    """
    if isinstance(value, str) and not value:
        return ""
    return repr(value)


class Trace:
    """An append-only logical trace with a stable fingerprint.

    Tags are stored relative to :attr:`origin` (the environment's logical
    start time), so traces of the same program are comparable between
    runs even when OS jitter shifted the moment the runtime started.

    Each record is kept as one flat row ``(time - origin, microstep,
    kind, name, text)`` with the value already rendered; the
    :class:`TraceRecord` objects of :attr:`records` are built on read.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.origin = 0
        self._rows: list[tuple[int, int, str, str, str]] = []

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        """Read-only view of the records, built from the rows on each read."""
        return tuple(
            TraceRecord(Tag(time, microstep), kind, name, text)
            for time, microstep, kind, name, text in self._rows
        )

    def record(self, tag: Tag, kind: str, name: str, value: Any = "") -> None:
        """Append a record (no-op when disabled)."""
        if self.enabled:
            self._rows.append(
                (tag.time - self.origin, tag.microstep, kind, name, _render(value))
            )

    def reaction(self, tag: Tag, name: str) -> None:
        """Record a reaction execution."""
        if self.enabled:
            self._rows.append(
                (tag.time - self.origin, tag.microstep, "reaction", name, "")
            )

    def port_sets(self, tag: Tag, ports: list, value: Any) -> None:
        """Record *value* being set on each of *ports*, rendering it once."""
        if self.enabled:
            text = _render(value)
            time = tag.time - self.origin
            microstep = tag.microstep
            rows = self._rows
            for port in ports:
                rows.append((time, microstep, "set", port.fqn, text))

    def deadline_miss(self, tag: Tag, name: str, lag_ns: int) -> None:
        """Record a deadline violation (an observable error)."""
        self.record(tag, "deadline-miss", name, lag_ns)

    def add_row(
        self, time: int, microstep: int, kind: str, name: str, text: str
    ) -> None:
        """Append an already normalized and rendered row (trace loading)."""
        self._rows.append((time, microstep, kind, name, text))

    def fingerprint(self) -> str:
        """SHA-256 over the canonical rendering of all records.

        Hashes the same text as joining :meth:`lines`, but renders each
        tag's ``time.microstep`` once per run of rows sharing it and
        each ``kind name`` head once per distinct pair (a run has a few
        dozen), since rows arrive in tag order.
        """
        digest = hashlib.sha256()
        rows = self._rows
        heads: dict[tuple[str, str], str] = {}
        last_time = last_microstep = None
        prefix = ""
        for start in range(0, len(rows), _HASH_BATCH):
            parts: list[str] = []
            append = parts.append
            for time, microstep, kind, name, text in rows[start : start + _HASH_BATCH]:
                if time != last_time or microstep != last_microstep:
                    last_time, last_microstep = time, microstep
                    prefix = f"{time}.{microstep} "
                head = heads.get((kind, name))
                if head is None:
                    head = heads[kind, name] = f"{kind} {name} "
                append(f"{prefix}{head}{text}\n")
            digest.update("".join(parts).encode())
        return digest.hexdigest()

    def lines(self) -> list[str]:
        """Human-readable rendering."""
        return [_line(*row) for row in self._rows]

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"Trace(records={len(self._rows)}, enabled={self.enabled})"
