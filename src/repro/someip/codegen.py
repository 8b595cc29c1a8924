"""The code generator behind :mod:`repro.someip.serialization`.

:func:`compile_codec` turns one :class:`~repro.someip.serialization.Struct`
or :class:`~repro.someip.serialization.Array` layout into Python source
for a flat ``serialize(value, out)`` and ``deserialize(data, off)`` pair
and compiles it.  Each run of adjacent fixed-width fields is one
``struct`` pack/unpack, nested structs and arrays are inlined (arrays as
loops) and ``BOOL`` keeps its 0/1 check.

The generated code covers the success path only.  Whenever one of its
checks fails it calls the field-wise helpers below, which re-run the
field group (or, for a key mismatch, the whole struct) through each
field's own spec.  The first failing field therefore raises the same
:class:`~repro.errors.SerializationError`, after appending the same
partial bytes, as a field-by-field encoder would.

:mod:`repro.someip.serialization` imports this module on first use and
caches its result per layout.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Sequence

from repro.errors import SerializationError
from repro.someip.serialization import (
    UINT32,
    Array,
    Struct,
    TypeSpec,
    _Bool,
    _Scalar,
)

Codec = tuple[Callable[[Any, bytearray], None], Callable[[memoryview, int], Any]]


def compile_codec(spec: Struct | Array) -> Codec:
    """Generate and compile the ``(serialize, deserialize)`` pair of *spec*."""
    return _Codegen().compile(spec)


def _serialize_struct(spec: Struct, value: dict, out: bytearray) -> None:
    """Encode *value* field by field; raises on an extra or missing key."""
    extra = set(value) - {name for name, _ in spec.fields}
    if extra:
        raise SerializationError(f"unknown fields {sorted(extra)} for {spec.name}")
    for field_name, field_spec in spec.fields:
        if field_name not in value:
            raise SerializationError(f"missing field {field_name!r} for {spec.name}")
        field_spec.serialize(value[field_name], out)


def _serialize_fields(
    fields: Sequence[tuple[str, TypeSpec]], value: dict, out: bytearray
) -> None:
    """Encode one field group of *value* through each field's own spec."""
    for field_name, spec in fields:
        spec.serialize(value[field_name], out)


def _deserialize_fields(
    specs: Sequence[TypeSpec], data: memoryview, offset: int
) -> None:
    """Decode one field group spec by spec, raising at the first bad field."""
    for spec in specs:
        _value, offset = spec.deserialize(data, offset)


def _fixed(spec: TypeSpec) -> bool:
    return isinstance(spec, (_Scalar, _Bool))


def _groups(fields: Sequence[tuple[str, TypeSpec]]) -> list[list[tuple[str, TypeSpec]]]:
    """Split *fields* into runs of fixed-width fields and single others."""
    groups: list[list[tuple[str, TypeSpec]]] = []
    for field in fields:
        if groups and _fixed(field[1]) and _fixed(groups[-1][-1][1]):
            groups[-1].append(field)
        else:
            groups.append([field])
    return groups


class _Codegen:
    """Generates the ``serialize``/``deserialize`` pair of one layout.

    The generated functions use these locals: ``value``/``out`` (the
    serializer's arguments), ``data``/``off`` (the deserializer's
    arguments; ``off`` advances) and ``size`` (``len(data)``).  Every
    other name is a numbered temporary or a numbered constant bound in
    the functions' globals.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.namespace: dict[str, Any] = {
            "SerializationError": SerializationError,
            "_serialize_struct": _serialize_struct,
            "_serialize_fields": _serialize_fields,
            "_deserialize_fields": _deserialize_fields,
            "_pack_count": UINT32._struct.pack,
        }
        self._count = 0

    def compile(self, spec: Struct | Array) -> Codec:
        self.emit(0, "def serialize(value, out):")
        self.serialize(spec, "value", 1)
        self.emit(0, "def deserialize(data, off):")
        self.emit(1, "size = len(data)")
        result = self.deserialize(spec, 1)
        self.emit(1, f"return {result}, off")
        code = compile("\n".join(self.lines), f"<codec {spec.name}>", "exec")
        exec(code, self.namespace)
        return self.namespace["serialize"], self.namespace["deserialize"]

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def temp(self, prefix: str) -> str:
        self._count += 1
        return f"{prefix}{self._count}"

    def const(self, prefix: str, value: Any) -> str:
        name = self.temp(f"_{prefix}")
        self.namespace[name] = value
        return name

    # -- serialize: statements appending the wire form of a local to out --

    def serialize(self, spec: TypeSpec, value: str, depth: int) -> None:
        if isinstance(spec, Struct):
            self._serialize_struct(spec, value, depth)
        elif isinstance(spec, Array):
            self._serialize_array(spec, value, depth)
        elif _fixed(spec):
            fallback = f"{self.const('spec', spec)}.serialize({value}, out)"
            self._serialize_run([(value, spec)], fallback, depth)
        else:
            self.emit(depth, f"{self.const('spec', spec)}.serialize({value}, out)")

    def _serialize_struct(self, spec: Struct, value: str, depth: int) -> None:
        message = self.const("message", f"expected dict for {spec.name}")
        keys = self.const("keys", frozenset(name for name, _ in spec.fields))
        self.emit(depth, f"if not isinstance({value}, dict):")
        self.emit(depth + 1, f"raise SerializationError({message})")
        self.emit(depth, f"if {value}.keys() != {keys}:")
        self.emit(
            depth + 1, f"_serialize_struct({self.const('spec', spec)}, {value}, out)"
        )
        if not spec.fields:
            return
        self.emit(depth, "else:")
        for group in _groups(spec.fields):
            if _fixed(group[0][1]):
                items = [(f"{value}[{name!r}]", field) for name, field in group]
                fields = self.const("fields", tuple(group))
                fallback = f"_serialize_fields({fields}, {value}, out)"
                self._serialize_run(items, fallback, depth + 1)
            else:
                ((name, field),) = group
                item = self.temp("v")
                self.emit(depth + 1, f"{item} = {value}[{name!r}]")
                self.serialize(field, item, depth + 1)

    def _serialize_array(self, spec: Array, value: str, depth: int) -> None:
        self.emit(depth, f"if not isinstance({value}, (list, tuple)):")
        self.emit(
            depth + 1,
            "raise SerializationError("
            f'f"expected sequence, got {{type({value}).__name__}}")',
        )
        self.emit(depth, f"out += _pack_count(len({value}))")
        item = self.temp("e")
        self.emit(depth, f"for {item} in {value}:")
        self.serialize(spec.element, item, depth + 1)

    def _serialize_run(
        self, items: list[tuple[str, TypeSpec]], fallback: str, depth: int
    ) -> None:
        layout = struct.Struct(">" + "".join(spec.fmt for _, spec in items))
        args = ", ".join(
            f"1 if {expr} else 0" if isinstance(spec, _Bool) else expr
            for expr, spec in items
        )
        self.emit(depth, "try:")
        self.emit(depth + 1, f"out += {self.const('pack', layout.pack)}({args})")
        # Whatever pack rejected, the field-wise re-run raises it properly.
        self.emit(depth, "except Exception:")
        self.emit(depth + 1, fallback)

    # -- deserialize: statements decoding one value at off; each method
    # -- returns the expression that holds the value --

    def deserialize(self, spec: TypeSpec, depth: int) -> str:
        if isinstance(spec, Struct):
            return self._deserialize_struct(spec, depth)
        if isinstance(spec, Array):
            return self._deserialize_array(spec, depth)
        if _fixed(spec):
            (value,) = self._deserialize_run([spec], depth)
            return value
        value = self.temp("v")
        call = f"{self.const('spec', spec)}.deserialize(data, off)"
        self.emit(depth, f"{value}, off = {call}")
        return value

    def _deserialize_struct(self, spec: Struct, depth: int) -> str:
        values: list[str] = []
        for group in _groups(spec.fields):
            if _fixed(group[0][1]):
                values += self._deserialize_run([field for _, field in group], depth)
            else:
                values.append(self.deserialize(group[0][1], depth))
        entries = ", ".join(
            f"{name!r}: {value}" for (name, _), value in zip(spec.fields, values)
        )
        return f"{{{entries}}}"

    def _deserialize_array(self, spec: Array, depth: int) -> str:
        (count,) = self._deserialize_run([UINT32], depth)
        items = self.temp("a")
        self.emit(depth, f"{items} = []")
        self.emit(depth, f"for _ in range({count}):")
        element = self.deserialize(spec.element, depth + 1)
        self.emit(depth + 1, f"{items}.append({element})")
        return items

    def _deserialize_run(self, specs: list[TypeSpec], depth: int) -> list[str]:
        layout = struct.Struct(">" + "".join(spec.fmt for spec in specs))
        values = [self.temp("v") for _ in specs]
        fallback = (
            f"_deserialize_fields({self.const('specs', tuple(specs))}, data, off)"
        )
        self.emit(depth, f"if off + {layout.size} > size:")
        self.emit(depth + 1, fallback)
        unpack = self.const("unpack", layout.unpack_from)
        self.emit(depth, f"{', '.join(values)}, = {unpack}(data, off)")
        bools = [value for value, spec in zip(values, specs) if isinstance(spec, _Bool)]
        if bools:
            self.emit(depth, f"if {' or '.join(f'{b} > 1' for b in bools)}:")
            self.emit(depth + 1, fallback)
        self.emit(depth, f"off += {layout.size}")
        return [
            f"{value} == 1" if isinstance(spec, _Bool) else value
            for value, spec in zip(values, specs)
        ]
