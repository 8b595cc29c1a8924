"""Typed payload serialization.

SOME/IP payloads are serialized per the interface description; real AP
toolchains generate serializers from ARXML.  This module does the same
from composable :class:`TypeSpec` objects: fixed-width integers and
floats, booleans, length-prefixed strings and byte blobs, homogeneous
arrays and nested structs.  All multi-byte values are big-endian,
matching SOME/IP's network byte order default.

The serializers are generated.  On first use, every :class:`Struct` and
:class:`Array` is compiled into one flat ``serialize`` and one
``deserialize`` function (by :mod:`repro.someip.codegen`):

* each run of adjacent fixed-width fields (integers, floats, ``BOOL``)
  is one :class:`struct.Struct` ``pack`` / ``unpack_from``;
* nested structs and arrays, of structs or of scalars, are inlined, the
  arrays as loops;
* ``BOOL`` is inlined and still rejects any byte other than 0 or 1.

The compiled pair is cached by field layout, so a spec rebuilt per run
(the ``data_spec`` of an :class:`~repro.ara.Event`, say) reuses the code
of the first spec with the same layout.

Only the success path is generated.  When a check fails, the code
re-runs field by field through the scalar specs: the field group, for
a value ``pack`` rejects, a truncated run or an invalid bool byte; the
whole struct, for a missing or extra key.  The first failing field
therefore raises the same :class:`~repro.errors.SerializationError`
text, and leaves the same partial bytes in ``out``, as encoding field
by field would.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import SerializationError

if TYPE_CHECKING:
    from repro.someip.codegen import Codec


class TypeSpec:
    """Base class for payload type descriptions."""

    name = "abstract"

    def serialize(self, value: Any, out: bytearray) -> None:
        """Append the wire form of *value* to *out*."""
        raise NotImplementedError

    def deserialize(self, data: memoryview, offset: int) -> tuple[Any, int]:
        """Parse one value at *offset*; return ``(value, next_offset)``."""
        raise NotImplementedError

    def to_bytes(self, value: Any) -> bytes:
        """Convenience: serialize a single value to bytes."""
        out = bytearray()
        self.serialize(value, out)
        return bytes(out)

    def from_bytes(self, data: bytes) -> Any:
        """Convenience: deserialize a payload that holds exactly one value."""
        value, offset = self.deserialize(memoryview(data), 0)
        if offset != len(data):
            raise SerializationError(
                f"{len(data) - offset} trailing bytes after {self.name}"
            )
        return value

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class _Scalar(TypeSpec):
    """Fixed-width scalar packed with :mod:`struct`."""

    def __init__(
        self,
        name: str,
        fmt: str,
        lo: int | float | None = None,
        hi: int | float | None = None,
    ) -> None:
        self.name = name
        self.fmt = fmt
        self.lo = lo
        self.hi = hi
        self._struct = struct.Struct(">" + fmt)

    def serialize(self, value: Any, out: bytearray) -> None:
        try:
            if self.lo is not None and not (self.lo <= value <= self.hi):
                raise SerializationError(
                    f"{value!r} out of range for {self.name} [{self.lo}, {self.hi}]"
                )
            out += self._struct.pack(value)
        except (TypeError, OverflowError, struct.error) as exc:
            raise SerializationError(f"cannot pack {value!r} as {self.name}") from exc

    def deserialize(self, data: memoryview, offset: int) -> tuple[Any, int]:
        end = offset + self._struct.size
        if end > len(data):
            raise SerializationError(f"truncated {self.name} at offset {offset}")
        (value,) = self._struct.unpack_from(data, offset)
        return value, end


UINT8 = _Scalar("uint8", "B", 0, 2**8 - 1)
UINT16 = _Scalar("uint16", "H", 0, 2**16 - 1)
UINT32 = _Scalar("uint32", "I", 0, 2**32 - 1)
UINT64 = _Scalar("uint64", "Q", 0, 2**64 - 1)
INT8 = _Scalar("int8", "b", -(2**7), 2**7 - 1)
INT16 = _Scalar("int16", "h", -(2**15), 2**15 - 1)
INT32 = _Scalar("int32", "i", -(2**31), 2**31 - 1)
INT64 = _Scalar("int64", "q", -(2**63), 2**63 - 1)
FLOAT32 = _Scalar("float32", "f")
FLOAT64 = _Scalar("float64", "d")


class _Bool(TypeSpec):
    """A boolean as one byte (0 or 1)."""

    name = "bool"
    fmt = "B"

    def serialize(self, value: Any, out: bytearray) -> None:
        out.append(1 if value else 0)

    def deserialize(self, data: memoryview, offset: int) -> tuple[Any, int]:
        if offset >= len(data):
            raise SerializationError("truncated bool")
        byte = data[offset]
        if byte not in (0, 1):
            raise SerializationError(f"invalid bool byte 0x{byte:02x}")
        return bool(byte), offset + 1


BOOL = _Bool()


class _Bytes(TypeSpec):
    """A byte blob with a uint32 length prefix."""

    name = "bytes"

    def serialize(self, value: Any, out: bytearray) -> None:
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise SerializationError(f"expected bytes, got {type(value).__name__}")
        UINT32.serialize(len(value), out)
        out += bytes(value)

    def deserialize(self, data: memoryview, offset: int) -> tuple[Any, int]:
        length, offset = UINT32.deserialize(data, offset)
        end = offset + length
        if end > len(data):
            raise SerializationError("truncated bytes payload")
        return bytes(data[offset:end]), end


BYTES = _Bytes()


class _String(TypeSpec):
    """A UTF-8 string with a uint32 length prefix."""

    name = "string"

    def serialize(self, value: Any, out: bytearray) -> None:
        if not isinstance(value, str):
            raise SerializationError(f"expected str, got {type(value).__name__}")
        BYTES.serialize(value.encode("utf-8"), out)

    def deserialize(self, data: memoryview, offset: int) -> tuple[Any, int]:
        raw, offset = BYTES.deserialize(data, offset)
        try:
            return raw.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise SerializationError("invalid UTF-8 in string") from exc


STRING = _String()


class _Generated(TypeSpec):
    """A spec whose codec is generated on first use, once per layout."""

    _layout: tuple

    def serialize(self, value: Any, out: bytearray) -> None:
        self.serialize, self.deserialize = _codec(self)
        self.serialize(value, out)

    def deserialize(self, data: memoryview, offset: int) -> tuple[Any, int]:
        self.serialize, self.deserialize = _codec(self)
        return self.deserialize(data, offset)


class Array(_Generated):
    """A homogeneous dynamic array with a uint32 element count."""

    def __init__(self, element: TypeSpec) -> None:
        if _encodes_empty(element):
            # Each element would decode from zero bytes, so a forged
            # 4-byte count could demand billions of them.
            raise ValueError(
                f"array element {element.name} always encodes to zero bytes"
            )
        self.element = element
        self.name = f"array<{element.name}>"
        self._layout = ("array", _layout_of(element))


class Struct(_Generated):
    """An ordered set of named fields, (de)serialized as a dict."""

    def __init__(self, fields: Sequence[tuple[str, TypeSpec]], name: str = "struct"):
        seen = set()
        for field_name, _spec in fields:
            if field_name in seen:
                raise ValueError(f"duplicate struct field {field_name!r}")
            seen.add(field_name)
        self.fields = list(fields)
        self.name = name
        self._layout = (
            "struct",
            name,
            tuple((field_name, _layout_of(spec)) for field_name, spec in self.fields),
        )


def _encodes_empty(spec: TypeSpec) -> bool:
    """Whether every value of *spec* encodes to zero bytes.

    Only a struct whose fields all do (``VOID``, a struct of ``VOID``s)
    qualifies: every other built-in spec writes at least a byte or a
    length prefix.
    """
    return isinstance(spec, Struct) and all(
        _encodes_empty(field) for _name, field in spec.fields
    )


# --------------------------------------------------------------------------
# Generated codecs, cached by layout.
# --------------------------------------------------------------------------

#: Generated codecs by field layout (see :func:`_layout_of`).
_CODECS: dict[Any, Codec] = {}


def _layout_of(spec: TypeSpec) -> Any:
    """A hashable key equal for specs that encode alike, errors included.

    Struct and array layouts are built from their fields' layouts (and
    the struct name, which error texts carry); any other spec is its own
    key.
    """
    return spec._layout if isinstance(spec, _Generated) else spec


def _codec(spec: _Generated) -> Codec:
    codec = _CODECS.get(spec._layout)
    if codec is None:
        # Imported on first use: the generator needs the classes above,
        # and a process that only describes payload types never loads it.
        from repro.someip.codegen import compile_codec

        codec = _CODECS[spec._layout] = compile_codec(spec)
    return codec


#: An empty payload (zero-field struct), for methods without arguments.
VOID = Struct([], name="void")
