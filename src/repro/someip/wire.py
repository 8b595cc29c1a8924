"""SOME/IP wire format.

Follows the AUTOSAR "SOME/IP Protocol Specification" (FO R1.5.0) message
layout used by the paper's middleware::

    Message ID (Service ID 16 | Method ID 16)          4 bytes
    Length (covers everything after this field)        4 bytes
    Request ID (Client ID 16 | Session ID 16)          4 bytes
    Protocol Version 8 | Interface Version 8
      | Message Type 8 | Return Code 8                 4 bytes
    Payload                                            variable

Messages are really packed to bytes and parsed back; the simulated
network carries the byte blobs, so the tagged-message extension
(:mod:`repro.someip.tagging`) has an honest wire representation to
extend, as in the paper.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.errors import MalformedMessageError
from repro.time.tag import Tag

#: SOME/IP protocol version carried in every message.
PROTOCOL_VERSION = 0x01
#: The standard extension the paper advocates (Section VI): a protocol
#: revision that carries reactor tags natively, "obviating the need for
#: the workarounds" (tag trailer + timestamp bypass).  A version-2
#: message has a 12-byte tag field between header and payload.
PROTOCOL_VERSION_TAGGED = 0x02

_HEADER = struct.Struct(">HHIHHBBBB")
_NATIVE_TAG = struct.Struct(">qI")
#: Bytes of the header before the payload.
HEADER_SIZE = _HEADER.size
#: Size of the native tag field in version-2 messages.
NATIVE_TAG_SIZE = _NATIVE_TAG.size
#: Bytes covered by the Length field that are not payload.
LENGTH_OVERHEAD = 8


class MessageType(enum.IntEnum):
    """SOME/IP message types (subset used by AP communication)."""

    REQUEST = 0x00
    REQUEST_NO_RETURN = 0x01
    NOTIFICATION = 0x02
    RESPONSE = 0x80
    ERROR = 0x81


class ReturnCode(enum.IntEnum):
    """SOME/IP return codes."""

    E_OK = 0x00
    E_NOT_OK = 0x01
    E_UNKNOWN_SERVICE = 0x02
    E_UNKNOWN_METHOD = 0x03
    E_NOT_READY = 0x04
    E_NOT_REACHABLE = 0x05
    E_TIMEOUT = 0x06
    E_WRONG_PROTOCOL_VERSION = 0x07
    E_WRONG_INTERFACE_VERSION = 0x08
    E_MALFORMED_MESSAGE = 0x09
    E_WRONG_MESSAGE_TYPE = 0x0A


#: Wire value -> member, for :func:`parse`.
_MESSAGE_TYPES = {member.value: member for member in MessageType}
_RETURN_CODES = {member.value: member for member in ReturnCode}


@dataclass(frozen=True, slots=True)
class SomeIpHeader:
    """The fixed 16-byte SOME/IP header."""

    service_id: int
    method_id: int
    client_id: int
    session_id: int
    interface_version: int = 1
    message_type: MessageType = MessageType.REQUEST
    return_code: ReturnCode = ReturnCode.E_OK
    protocol_version: int = PROTOCOL_VERSION

    @property
    def message_id(self) -> int:
        """The 32-bit Message ID (service << 16 | method)."""
        return (self.service_id << 16) | self.method_id

    @property
    def request_id(self) -> int:
        """The 32-bit Request ID (client << 16 | session)."""
        return (self.client_id << 16) | self.session_id


@dataclass(frozen=True, slots=True)
class SomeIpMessage:
    """A parsed SOME/IP message: header, payload bytes, optional tag.

    A non-``None`` *native_tag* selects the version-2 wire format with
    the tag carried as a first-class field (the paper's proposed
    standard extension); otherwise the message is a plain version-1
    message (whose payload may still end in a DEAR tag trailer — the
    workaround encoding).
    """

    header: SomeIpHeader
    payload: bytes
    native_tag: Tag | None = None

    def pack(self) -> bytes:
        """Serialize to wire bytes (see :func:`pack`).

        The protocol version follows *native_tag*, not
        ``header.protocol_version``.
        """
        header = self.header
        return pack(
            header.service_id,
            header.method_id,
            header.client_id,
            header.session_id,
            header.interface_version,
            header.message_type,
            header.return_code,
            self.payload,
            self.native_tag,
        )

    @property
    def size_bytes(self) -> int:
        """On-wire size of the packed message."""
        extra = NATIVE_TAG_SIZE if self.native_tag is not None else 0
        return HEADER_SIZE + extra + len(self.payload)

    @staticmethod
    def unpack(data: bytes) -> "SomeIpMessage":
        """Parse wire bytes back into a message (see :func:`parse`)."""
        *fields, payload, native_tag = parse(data)
        return SomeIpMessage(SomeIpHeader(*fields), payload, native_tag)


def pack(
    service_id: int,
    method_id: int,
    client_id: int,
    session_id: int,
    interface_version: int,
    message_type: int,
    return_code: int,
    payload: bytes,
    native_tag: Tag | None = None,
) -> bytes:
    """Pack one message from plain header fields.

    Without *native_tag* this is a protocol-version-1 message; with it,
    the version-2 form carrying the tag field between header and
    payload.  Builds no :class:`SomeIpHeader`.
    """
    if native_tag is None:
        version, extra, prefix = PROTOCOL_VERSION, LENGTH_OVERHEAD, b""
    else:
        version = PROTOCOL_VERSION_TAGGED
        extra = NATIVE_TAG_SIZE + LENGTH_OVERHEAD
        prefix = _NATIVE_TAG.pack(native_tag.time, native_tag.microstep)
    return (
        _HEADER.pack(
            service_id,
            method_id,
            len(payload) + extra,
            client_id,
            session_id,
            version,
            interface_version,
            message_type,
            return_code,
        )
        + prefix
        + payload
    )


def parse(data: bytes) -> tuple:
    """Parse wire bytes into plain fields, building no header object.

    Returns ``(service_id, method_id, client_id, session_id,
    interface_version, message_type, return_code, protocol_version,
    payload, native_tag)``: the first eight items are
    :class:`SomeIpHeader`'s fields in declaration order, *message_type*
    and *return_code* are enum members, and *native_tag* is ``None``
    unless the message is version 2.

    Raises :class:`MalformedMessageError` on truncation, a length
    mismatch, an unsupported protocol version, a version-2 message
    without its tag field, or an unknown message type or return code —
    the checks a conforming endpoint performs before dispatching.
    """
    size = len(data)
    if size < HEADER_SIZE:
        raise MalformedMessageError(f"message truncated: {size} bytes < header size")
    (
        service_id,
        method_id,
        length,
        client_id,
        session_id,
        protocol_version,
        interface_version,
        message_type_raw,
        return_code_raw,
    ) = _HEADER.unpack_from(data)
    expected = length - LENGTH_OVERHEAD
    if expected != size - HEADER_SIZE:
        raise MalformedMessageError(
            f"length field says {expected} payload bytes, got {size - HEADER_SIZE}"
        )
    if protocol_version == PROTOCOL_VERSION:
        native_tag = None
        payload = data[HEADER_SIZE:]
    elif protocol_version == PROTOCOL_VERSION_TAGGED:
        if expected < NATIVE_TAG_SIZE:
            raise MalformedMessageError("version-2 message lacks its tag field")
        time, microstep = _NATIVE_TAG.unpack_from(data, HEADER_SIZE)
        native_tag = Tag(time, microstep)
        payload = data[HEADER_SIZE + NATIVE_TAG_SIZE :]
    else:
        raise MalformedMessageError(
            f"unsupported protocol version 0x{protocol_version:02x}"
        )
    message_type = _MESSAGE_TYPES.get(message_type_raw)
    if message_type is None:
        raise MalformedMessageError(f"unknown message type 0x{message_type_raw:02x}")
    return_code = _RETURN_CODES.get(return_code_raw)
    if return_code is None:
        raise MalformedMessageError(f"unknown return code 0x{return_code_raw:02x}")
    return (
        service_id,
        method_id,
        client_id,
        session_id,
        interface_version,
        message_type,
        return_code,
        protocol_version,
        bytes(payload),
        native_tag,
    )
