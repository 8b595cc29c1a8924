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
from collections.abc import Iterator
from itertools import islice
from marshal import dumps as _marshal
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


#: Entries hashed per ``update`` call: large enough to amortize the
#: call, small enough that fingerprinting a long trace does not hold a
#: second whole-trace copy of its text.
_HASH_BATCH = 512

#: Canonical one-line rendering of a row (the fingerprint's input).
_line = "{}.{} {} {} {}".format

#: The ``(kind, name)`` of each row of one trace entry.
_Heads = tuple[tuple[str, str], ...]

#: Renderings handed out by :func:`_render`, so that one ``repr`` call
#: serves every row (and every trace: a brake-dear frame's text lands
#: in three environments' traces) carrying an equal value.  A value
#: whose marshal bytes fix its ``repr`` (see :func:`_repr_keyed`) is
#: keyed by those bytes; any other value's text is keyed by itself, so
#: equal texts still share one ``str``.  The table is bounded: it is
#: cleared once it holds :data:`_TEXTS_MAX` entries, which only costs
#: ``repr`` calls.  ``get``, ``clear``, item assignment and
#: ``setdefault`` are single dict operations, so threads recording at
#: once stay safe.
_TEXTS: dict[bytes | str, str] = {}
_TEXTS_MAX = 64

#: Types whose marshal bytes determine their ``repr`` outright.
_ATOMS = frozenset({bool, int, float, complex, str, type(None)})
#: Containers whose marshal bytes list their items in ``repr`` order
#: (with :class:`dict`).  Not sets: marshal sorts their items, so equal
#: sets iterating (and printing) in different orders share bytes.
_SEQUENCES = frozenset({tuple, list})


def _repr_keyed(value: Any) -> bool:
    """Whether *value*'s marshal bytes fix its ``repr``.

    Marshal (version 2: no reference flags, so equal structures give
    equal bytes) writes exact atoms, tuples, lists and dicts one way
    each, in ``repr`` order, and rejects subclasses and foreign types.
    But it writes any bytes-like object (``bytearray``, ``memoryview``,
    arrays, NumPy scalars) as plain ``bytes``, a code object without
    its address, and a set's items sorted.  So a value is keyed only
    when it is built from atoms, tuples, lists and dicts alone: its
    bytes then parse to the same types, items and order as any other
    value's with the same bytes.  Walks the value without recursion.
    """
    atoms = _ATOMS
    stack = [value]
    while stack:
        item = stack.pop()
        cls = type(item)
        if cls is dict:
            if not atoms.issuperset(map(type, item)):
                stack += item
            item = item.values()
        elif cls not in _SEQUENCES:
            if cls in atoms:
                continue
            return False
        if not atoms.issuperset(map(type, item)):
            stack += item
    return True


def _render(value: Any) -> str:
    """Trace text of a port value: ``repr``, or ``""`` for the empty string.

    "No value" is decided from the type, never through the value's own
    ``__ne__``, so array-like values (whose comparison returns an array)
    render like any other.  A value already in :data:`_TEXTS` under its
    marshal bytes is not rendered again; otherwise an equal earlier
    rendering still in the table is returned instead of the new one.
    """
    if isinstance(value, str) and not value:
        return ""
    try:
        key = _marshal(value, 2)
    except ValueError:  # a subclass, a foreign type or too deep
        key = None
    else:
        text = _TEXTS.get(key)
        if text is not None:
            return text
    text = repr(value)
    if len(_TEXTS) >= _TEXTS_MAX:
        _TEXTS.clear()
    if key is not None and _repr_keyed(value):
        _TEXTS[key] = text
        return text
    return _TEXTS.setdefault(text, text)


class Trace:
    """An append-only logical trace with a stable fingerprint.

    Tags are stored relative to :attr:`origin` (the environment's logical
    start time), so traces of the same program are comparable between
    runs even when OS jitter shifted the moment the runtime started.

    Rows are kept compactly in a flat list, four slots per entry:
    relative time, microstep, *heads* and the already rendered text.
    *heads* is a tuple of ``(kind, name)`` pairs, one per row, so a
    reaction adds a one-row entry and a propagated closure adds one
    entry naming each of its ports, all sharing the one rendering.  Each
    distinct heads tuple is built once and shared, the relative time is
    computed once per tag, and equal renderings share one ``str``.  The
    :class:`TraceRecord` objects of :attr:`records` are built on read.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._origin = 0
        self._entries: list[Any] = []
        #: Shared heads tuples, keyed by a reaction's name, a closure's
        #: ports or a row's ``(kind, name)``.
        self._heads: dict[Any, _Heads] = {}
        #: The tag of the last entry and its time relative to the origin.
        self._tag: Tag | None = None
        self._time = 0

    @property
    def origin(self) -> int:
        """Logical start time the stored tag times are relative to."""
        return self._origin

    @origin.setter
    def origin(self, origin: int) -> None:
        self._origin = origin
        self._tag = None

    def _iter_entries(self) -> Iterator[tuple[int, int, _Heads, str]]:
        """``(time, microstep, heads, text)`` per entry."""
        entries = iter(self._entries)
        return zip(entries, entries, entries, entries)

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        """Read-only view of the records, built from the entries on each read."""
        records = []
        for time, microstep, heads, text in self._iter_entries():
            tag = Tag(time, microstep)
            records.extend(TraceRecord(tag, kind, name, text) for kind, name in heads)
        return tuple(records)

    def record(self, tag: Tag, kind: str, name: str, value: Any = "") -> None:
        """Append a record (no-op when disabled)."""
        if self.enabled:
            if tag is not self._tag:
                self._tag = tag
                self._time = tag.time - self._origin
            self.add_row(self._time, tag.microstep, kind, name, _render(value))

    def reaction(self, tag: Tag, name: str) -> None:
        """Record a reaction execution."""
        if self.enabled:
            if tag is not self._tag:
                self._tag = tag
                self._time = tag.time - self._origin
            heads = self._heads.get(name)
            if heads is None:
                heads = self._heads[name] = (("reaction", name),)
            self._entries += (self._time, tag.microstep, heads, "")

    def port_sets(self, tag: Tag, ports: list, value: Any) -> None:
        """Record *value* being set on each of *ports*, rendering it once."""
        if self.enabled:
            text = _render(value)
            key = tuple(ports)
            heads = self._heads.get(key)
            if heads is None:
                heads = self._heads[key] = tuple(("set", port.fqn) for port in ports)
            if tag is not self._tag:
                self._tag = tag
                self._time = tag.time - self._origin
            self._entries += (self._time, tag.microstep, heads, text)

    def deadline_miss(self, tag: Tag, name: str, lag_ns: int) -> None:
        """Record a deadline violation (an observable error)."""
        self.record(tag, "deadline-miss", name, lag_ns)

    def add_row(
        self, time: int, microstep: int, kind: str, name: str, text: str
    ) -> None:
        """Append an already normalized and rendered row (trace loading)."""
        key = (kind, name)
        heads = self._heads.get(key)
        if heads is None:
            heads = self._heads[key] = (key,)
        self._entries += (time, microstep, heads, text)

    def fingerprint(self) -> str:
        """SHA-256 over the canonical rendering of all records.

        Hashes the same text as joining :meth:`lines`, but renders each
        tag's ``time.microstep`` once per run of entries sharing it and
        the ``kind name`` heads once per distinct heads tuple (a run has
        a few dozen), since entries arrive in tag order.
        """
        digest = hashlib.sha256()
        entries = self._entries
        step = 4 * _HASH_BATCH
        head_texts: dict[_Heads, tuple[str, ...]] = {}
        last_time = last_microstep = None
        prefix = ""
        for start in range(0, len(entries), step):
            parts: list[str] = []
            append = parts.append
            batch = iter(entries[start : start + step])
            for time, microstep, heads, text in zip(batch, batch, batch, batch):
                if time != last_time or microstep != last_microstep:
                    last_time, last_microstep = time, microstep
                    prefix = f"{time}.{microstep} "
                texts = head_texts.get(heads)
                if texts is None:
                    texts = head_texts[heads] = tuple(
                        f"{kind} {name} " for kind, name in heads
                    )
                for head in texts:
                    append(f"{prefix}{head}{text}\n")
            digest.update("".join(parts).encode())
        return digest.hexdigest()

    def lines(self) -> list[str]:
        """Human-readable rendering."""
        return [
            _line(time, microstep, kind, name, text)
            for time, microstep, heads, text in self._iter_entries()
            for kind, name in heads
        ]

    def __len__(self) -> int:
        """The number of rows (records), not of stored entries."""
        return sum(map(len, islice(self._entries, 2, None, 4)))

    def __repr__(self) -> str:
        return f"Trace(records={len(self)}, enabled={self.enabled})"
