"""The paper's tagged-message extension and timestamp bypass.

AUTOSAR AP has no way to attach metadata like reactor tags to method
calls or events.  The paper therefore (a) modifies the SOME/IP binding to
optionally append a tag to outgoing messages and read it from incoming
ones, and (b) introduces a *timestamp bypass*: a side channel between a
transactor and the binding through which the tag travels around the
standard proxy/skeleton API (steps (2)/(5) and (7)/(10) etc. of the
paper's Figure 3).

The wire form is a 20-byte trailer (:data:`TRAILER_SIZE`) after the
regular payload::

    magic     8 bytes  b"DEARtag:"
    time      8 bytes  signed big-endian nanoseconds
    microstep 4 bytes  unsigned big-endian

On the wire the trailer is only extra payload bytes, so a SOME/IP stack
without the extension sees a slightly longer payload, which is why the
extension "is not in violation of the standard" — it behaves like a
third-party middleware layered over SOME/IP.  This binding's endpoints
all look for it: every endpoint strips a valid trailer and passes the
tag to the handler, and a tag-aware endpoint also deposits the tag in
its RX bypass.
"""

from __future__ import annotations

import struct
from collections import deque

from repro.obs import context as obs_context
from repro.time.tag import Tag

#: Trailer magic; chosen so an accidental payload collision is negligible.
TAG_MAGIC = b"DEARtag:"

_TAG_TRAILER = struct.Struct(">8sqI")
#: Total size of the tag trailer in bytes.
TRAILER_SIZE = _TAG_TRAILER.size


def attach_tag(payload: bytes, tag: Tag) -> bytes:
    """Append a tag trailer to *payload*."""
    return payload + _TAG_TRAILER.pack(TAG_MAGIC, tag.time, tag.microstep)


def extract_tag(payload: bytes) -> tuple[bytes, Tag | None]:
    """Split *payload* into ``(original_payload, tag_or_None)``.

    Returns the payload unchanged when no valid trailer is present, so
    tag-aware endpoints interoperate with stock senders.
    """
    if len(payload) < TRAILER_SIZE:
        return payload, None
    magic, time, microstep = _TAG_TRAILER.unpack_from(
        payload, len(payload) - TRAILER_SIZE
    )
    if magic != TAG_MAGIC:
        return payload, None
    return payload[: -TRAILER_SIZE], Tag(time, microstep)


class TimestampBypass:
    """The side channel between transactors and the SOME/IP binding.

    The sender-side transactor :meth:`deposit`\\ s a tag immediately
    before invoking the regular proxy/skeleton call; the modified binding
    :meth:`collect`\\ s it while serializing that call.  On the receiving
    side the binding deposits the extracted tag before invoking the
    skeleton/proxy handler, which collects it.

    Deposits are queued FIFO because a burst of calls may be serialized
    back-to-back before the binding drains them.  An empty collect
    returns ``None`` (an untagged message).
    """

    def __init__(self, name: str = "bypass") -> None:
        self.name = name
        self._tags: deque[Tag] = deque()

    def deposit(self, tag: Tag) -> None:
        """Store *tag* for the next binding operation."""
        self._tags.append(tag)
        o = obs_context.ACTIVE
        if o is not None:
            o.metrics.counter("someip.bypass_deposits").inc()

    def collect(self) -> Tag | None:
        """Retrieve the oldest deposited tag, or ``None`` if empty."""
        o = obs_context.ACTIVE
        if self._tags:
            if o is not None:
                o.metrics.counter("someip.bypass_hits").inc()
            return self._tags.popleft()
        if o is not None:
            o.metrics.counter("someip.bypass_misses").inc()
        return None

    def __len__(self) -> int:
        return len(self._tags)

    def __repr__(self) -> str:
        return f"TimestampBypass({self.name!r}, pending={len(self._tags)})"
