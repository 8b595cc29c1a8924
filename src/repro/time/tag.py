"""Superdense time tags for the reactor model.

A tag ``(time, microstep)`` identifies a logical instant.  Events with the
same time but different microsteps are logically ordered but take place at
the same *physical* instant; the microstep dimension is what lets a
logical action scheduled with zero delay be strictly *after* the reaction
that scheduled it without advancing time.

Tags are totally ordered lexicographically and immutable.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any

from repro.time.duration import Duration, format_duration

#: Builds a tag from a checked ``(time, microstep)`` pair (``Tag.__new__``,
#: and the results of :meth:`Tag.delay` and :meth:`Tag.advance_to`, whose
#: microstep is never negative).
_new = tuple.__new__


class Tag(namedtuple("_TagFields", ("time", "microstep"))):
    """A point in superdense logical time.

    A tuple subclass, so ordering, equality and hashing are the C-level
    tuple operations the reactor heap and the tag checks lean on: a tag
    compares and hashes equal to the plain tuple ``(time, microstep)``.

    Attributes:
        time: logical time in integer nanoseconds since simulation start.
        microstep: index within the same logical time.
    """

    __slots__ = ()

    def __new__(cls, time: int, microstep: int = 0) -> "Tag":
        if microstep < 0:
            raise ValueError("microstep must be non-negative")
        return _new(cls, (time, microstep))

    # Pickle and copy rebuild a tag through ``__new__(time, microstep)``
    # with the ``__getnewargs__`` the named-tuple base defines.

    def delay(self, duration: Duration) -> "Tag":
        """Return the tag obtained by delaying this one.

        A strictly positive *duration* advances logical time and resets the
        microstep; a zero *duration* advances only the microstep.  This is
        the standard reactor-model delay rule used when scheduling logical
        actions and when routing events through delayed connections.
        """
        if duration < 0:
            raise ValueError("cannot delay a tag by a negative duration")
        time, microstep = self
        if duration == 0:
            return _new(Tag, (time, microstep + 1))
        return _new(Tag, (time + duration, 0))

    def advance_to(self, time: int) -> "Tag":
        """Return the earliest tag at *time* that is after this tag."""
        if time < self.time:
            raise ValueError("cannot advance a tag backwards in time")
        if time == self.time:
            return _new(Tag, (time, self.microstep + 1))
        return _new(Tag, (time, 0))

    def __str__(self) -> str:
        return f"({format_duration(self.time)}, {self.microstep})"

    def __repr__(self) -> str:
        return f"Tag(time={self.time}, microstep={self.microstep})"

    def as_tuple(self) -> tuple[int, int]:
        """Return ``(time, microstep)`` for serialization."""
        return tuple(self)

    @staticmethod
    def from_tuple(value: tuple[int, int] | list[int] | Any) -> "Tag":
        """Reconstruct a tag from :meth:`as_tuple` output."""
        time, microstep = value
        return Tag(int(time), int(microstep))


#: A tag later than every achievable tag (used as "no event pending").
FOREVER = Tag(2**62, 0)

#: A tag earlier than every achievable tag (used as "before startup").
NEVER = Tag(-(2**62), 0)
