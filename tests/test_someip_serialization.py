"""Unit tests for typed payload serialization."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SerializationError
from repro.someip import (
    Array,
    BOOL,
    BYTES,
    FLOAT32,
    FLOAT64,
    INT8,
    INT16,
    INT32,
    INT64,
    STRING,
    Struct,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
)
from repro.someip.serialization import VOID


class TestScalars:
    @pytest.mark.parametrize(
        "spec,value",
        [
            (UINT8, 0),
            (UINT8, 255),
            (UINT16, 65535),
            (UINT32, 2**32 - 1),
            (INT32, -(2**31)),
            (INT64, 2**63 - 1),
        ],
    )
    def test_bounds_roundtrip(self, spec, value):
        assert spec.from_bytes(spec.to_bytes(value)) == value

    @pytest.mark.parametrize(
        "spec,value",
        [
            (UINT8, 256),
            (UINT8, -1),
            (INT32, 2**31),
            (UINT16, -7),
            (UINT32, None),
            (UINT32, "7"),
            (FLOAT32, 1e40),
        ],
    )
    def test_out_of_range(self, spec, value):
        with pytest.raises(SerializationError):
            spec.to_bytes(value)

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_int32_roundtrip(self, value):
        assert INT32.from_bytes(INT32.to_bytes(value)) == value

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float64_roundtrip(self, value):
        result = FLOAT64.from_bytes(FLOAT64.to_bytes(value))
        assert result == value or (math.isnan(result) and math.isnan(value))

    def test_big_endian(self):
        assert UINT16.to_bytes(0x0102) == b"\x01\x02"


class TestBoolBytesString:
    def test_bool_roundtrip(self):
        assert BOOL.from_bytes(BOOL.to_bytes(True)) is True
        assert BOOL.from_bytes(BOOL.to_bytes(False)) is False

    def test_bool_invalid_byte(self):
        with pytest.raises(SerializationError):
            BOOL.from_bytes(b"\x02")

    @given(st.binary(max_size=500))
    def test_bytes_roundtrip(self, blob):
        assert BYTES.from_bytes(BYTES.to_bytes(blob)) == blob

    @given(st.text(max_size=200))
    def test_string_roundtrip(self, text):
        assert STRING.from_bytes(STRING.to_bytes(text)) == text

    def test_string_type_check(self):
        with pytest.raises(SerializationError):
            STRING.to_bytes(42)

    def test_truncated_bytes(self):
        data = BYTES.to_bytes(b"hello")[:-2]
        with pytest.raises(SerializationError):
            BYTES.from_bytes(data)


class TestArray:
    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=50))
    def test_roundtrip(self, values):
        spec = Array(UINT8)
        assert spec.from_bytes(spec.to_bytes(values)) == values

    def test_nested_arrays(self):
        spec = Array(Array(UINT16))
        value = [[1, 2], [], [65535]]
        assert spec.from_bytes(spec.to_bytes(value)) == value

    def test_non_sequence_rejected(self):
        with pytest.raises(SerializationError):
            Array(UINT8).to_bytes(7)

    def test_void_elements_rejected(self):
        # A forged count would otherwise decode 2**32 - 1 elements from
        # the 4 count bytes alone.
        with pytest.raises(ValueError, match="zero bytes"):
            Array(VOID)

    def test_struct_of_empty_fields_rejected(self):
        empty = Struct([("a", VOID), ("b", Struct([("c", VOID)]))], name="hollow")
        with pytest.raises(ValueError, match="hollow"):
            Array(empty)
        # One byte-carrying field anywhere makes the element non-empty.
        assert Array(Struct([("a", VOID), ("b", BOOL)])).to_bytes([]) == bytes(4)


class TestStruct:
    def _spec(self):
        return Struct(
            [("id", UINT32), ("name", STRING), ("scores", Array(INT32))],
            name="record",
        )

    def test_roundtrip(self):
        spec = self._spec()
        value = {"id": 9, "name": "frame", "scores": [-1, 0, 5]}
        assert spec.from_bytes(spec.to_bytes(value)) == value

    def test_missing_field(self):
        with pytest.raises(SerializationError):
            self._spec().to_bytes({"id": 1, "name": "x"})

    def test_unknown_field(self):
        with pytest.raises(SerializationError):
            self._spec().to_bytes(
                {"id": 1, "name": "x", "scores": [], "bogus": 3}
            )

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(ValueError):
            Struct([("a", UINT8), ("a", UINT8)])

    def test_trailing_bytes_rejected(self):
        spec = self._spec()
        data = spec.to_bytes({"id": 1, "name": "", "scores": []}) + b"\x00"
        with pytest.raises(SerializationError):
            spec.from_bytes(data)

    def test_field_order_is_wire_order(self):
        spec = Struct([("a", UINT8), ("b", UINT8)])
        assert spec.to_bytes({"a": 1, "b": 2}) == b"\x01\x02"


# --------------------------------------------------------------------------
# The generated Struct/Array codecs against the field-wise definition.
# --------------------------------------------------------------------------


def reference_serialize(spec, value, out):
    """Field-wise, recursive encoding: the behaviour generated code keeps."""
    if isinstance(spec, Struct):
        if not isinstance(value, dict):
            raise SerializationError(f"expected dict for {spec.name}")
        extra = set(value) - {name for name, _ in spec.fields}
        if extra:
            raise SerializationError(f"unknown fields {sorted(extra)} for {spec.name}")
        for name, field in spec.fields:
            if name not in value:
                raise SerializationError(f"missing field {name!r} for {spec.name}")
            reference_serialize(field, value[name], out)
    elif isinstance(spec, Array):
        if not isinstance(value, (list, tuple)):
            raise SerializationError(f"expected sequence, got {type(value).__name__}")
        UINT32.serialize(len(value), out)
        for item in value:
            reference_serialize(spec.element, item, out)
    else:
        spec.serialize(value, out)


def reference_deserialize(spec, data, offset):
    if isinstance(spec, Struct):
        result = {}
        for name, field in spec.fields:
            result[name], offset = reference_deserialize(field, data, offset)
        return result, offset
    if isinstance(spec, Array):
        count, offset = UINT32.deserialize(data, offset)
        items = []
        for _ in range(count):
            item, offset = reference_deserialize(spec.element, data, offset)
            items.append(item)
        return items, offset
    return spec.deserialize(data, offset)


def reference_from_bytes(spec, data):
    value, offset = reference_deserialize(spec, memoryview(data), 0)
    if offset != len(data):
        raise SerializationError(
            f"{len(data) - offset} trailing bytes after {spec.name}"
        )
    return value


def _outcome(call):
    try:
        return ("ok", repr(call()))
    except SerializationError as exc:
        return ("error", str(exc))


_LEAVES = [
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    INT8,
    INT16,
    INT32,
    INT64,
    FLOAT32,
    FLOAT64,
    BOOL,
    STRING,
    BYTES,
]


def _struct(fields):
    return Struct([(f"f{i}", spec) for i, spec in enumerate(fields)], name="s")


def _array(element):
    """``Array(element)``, or ``None`` where :class:`Array` rejects it."""
    try:
        return Array(element)
    except ValueError:
        return None


#: Random layouts, empty structs included.
specs = st.recursive(
    st.one_of(st.sampled_from(_LEAVES), st.just(BOOL)),
    lambda children: st.one_of(
        children.map(_array).filter(lambda spec: spec is not None),
        st.lists(children, max_size=4).map(_struct),
    ),
    max_leaves=8,
)


def values(spec):
    """Mostly well-formed values for *spec*, with malformed ones mixed in."""
    junk = st.sampled_from([None, "7", 1.5, [], {}])
    if isinstance(spec, Struct):
        well_formed = st.fixed_dictionaries(
            {name: values(field) for name, field in spec.fields}
        )
        return st.one_of(
            well_formed,
            well_formed.map(lambda d: dict(list(d.items())[1:])),
            well_formed.map(lambda d: {**d, "bogus": 1}),
            junk,
        )
    if isinstance(spec, Array):
        return st.one_of(st.lists(values(spec.element), max_size=3), junk)
    if spec is BOOL:
        return st.one_of(st.booleans(), st.integers(0, 2))
    if spec is STRING:
        return st.one_of(st.text(max_size=4), junk)
    if spec is BYTES:
        return st.one_of(st.binary(max_size=4), junk)
    if spec.lo is None:
        return st.one_of(st.floats(width=64), junk)
    return st.one_of(st.integers(spec.lo - 2, spec.hi + 2), junk)


@st.composite
def spec_and_value(draw):
    spec = draw(specs)
    return spec, draw(values(spec))


class TestGeneratedCodec:
    @settings(max_examples=300, deadline=None)
    @given(spec_and_value())
    def test_encode_matches_field_wise(self, case):
        spec, value = case
        out, expected = bytearray(b"\xaa"), bytearray(b"\xaa")
        got = _outcome(lambda: spec.serialize(value, out))
        want = _outcome(lambda: reference_serialize(spec, value, expected))
        assert (got, out) == (want, expected)

    @settings(max_examples=300, deadline=None)
    @given(spec_and_value(), st.data())
    def test_decode_matches_field_wise(self, case, data):
        spec, value = case
        encoded = bytearray()
        if _outcome(lambda: reference_serialize(spec, value, encoded))[0] != "ok":
            encoded = bytearray(data.draw(st.binary(max_size=12)))
        mutation = data.draw(st.sampled_from(["none", "truncate", "flip", "append"]))
        if mutation == "truncate":
            del encoded[data.draw(st.integers(0, len(encoded))) :]
        elif mutation == "flip" and encoded:
            index = data.draw(st.integers(0, len(encoded) - 1))
            encoded[index] = data.draw(st.sampled_from([2, 0xFF]) | st.integers(0, 255))
        elif mutation == "append":
            encoded += data.draw(st.binary(min_size=1, max_size=3))
        payload = bytes(encoded)
        assert _outcome(lambda: spec.from_bytes(payload)) == _outcome(
            lambda: reference_from_bytes(spec, payload)
        )

    def test_layouts_compile_once(self):
        first = Struct([("a", UINT8), ("b", Array(STRING))], name="same")
        second = Struct([("a", UINT8), ("b", Array(STRING))], name="same")
        renamed = Struct([("a", UINT8), ("b", Array(STRING))], name="other")
        for spec in (first, second, renamed):
            spec.to_bytes({"a": 1, "b": ["x"]})
        assert first.serialize is second.serialize
        assert first.deserialize is second.deserialize
        assert renamed.serialize is not first.serialize
