"""SOME/IP codec goldens: wire bytes and error texts of every payload spec.

The payload codec (:mod:`repro.someip.serialization`) and the message
framing (:mod:`repro.someip.wire`) are pinned here byte for byte, so a
change to how either is implemented cannot move a single wire byte or
reword a single error:

* ``encode/*``: the hex wire form of every payload spec under ``src/``
  for fixed sample values (brake ``frame``/``lane``/``vehicles``/
  ``brake``, ``sd_payload``, the library ``sample``/``reading`` specs,
  interface method ``req``/``res`` and event ``data`` specs) and of a
  spec that uses every type: each scalar, strings, bytes, a nested
  struct, an empty array and nested arrays.  The golden bytes must also
  decode back to the sample value.
* ``error/*``: ``[type(exc).__name__, str(exc)]`` for malformed input,
  plus, for encoding, the partial bytes the encoder had appended to its
  ``out`` buffer when it raised.
* ``truncated/*``: the error for every proper prefix of an encoded
  payload, which crosses every field group boundary.
* ``message/*``: packed messages and ``SomeIpMessage.unpack`` errors.

To refresh after an *intentional* wire or message change, run
``PYTHONPATH=src python tests/test_someip_codec_goldens.py --capture``
and explain the change in the commit message.
"""

from __future__ import annotations

import json
import struct
import sys
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.apps.brake.data import BRAKE_SPEC, FRAME_SPEC, LANE_SPEC, VEHICLES_SPEC
from repro.apps.brake.nondet import ADAPTER_SERVICE, EBA_SERVICE
from repro.apps.counter import COUNTER_INTERFACE
from repro.apps.lib.failover import READING_SPEC
from repro.apps.lib.fusion import SAMPLE_SPEC
from repro.ara import Field, ServiceInterface
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
    MessageType,
    SomeIpHeader,
    SomeIpMessage,
    STRING,
    Struct,
    TypeSpec,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    attach_tag,
)
from repro.someip.sd import _SD_PAYLOAD_SPEC
from repro.time.tag import Tag

GOLDEN_PATH = Path(__file__).parent / "data" / "someip_codec_goldens.json"
FORMAT = "someip-codec-goldens/v1"

#: Error cases whose goldens were captured *after* integer and float
#: fields stopped leaking bare ``TypeError``/``OverflowError``: before
#: that fix, these raised from the range comparison or ``struct.pack``
#: instead of ``SerializationError("cannot pack ...")``.
BUGFIX_CASES = frozenset(
    {
        "error/uint32-none",
        "error/uint32-str",
        "error/float32-overflow",
        "error/frame-seq-none",
        "error/lane-right-overflow",
    }
)

POINT = Struct([("x", FLOAT32), ("y", FLOAT32), ("valid", BOOL)], name="point")
KITCHEN = Struct(
    [
        ("u8", UINT8),
        ("u16", UINT16),
        ("u32", UINT32),
        ("u64", UINT64),
        ("i8", INT8),
        ("i16", INT16),
        ("i32", INT32),
        ("i64", INT64),
        ("f32", FLOAT32),
        ("f64", FLOAT64),
        ("flag", BOOL),
        ("label", STRING),
        ("blob", BYTES),
        ("origin", POINT),
        ("path", Array(POINT)),
        ("grid", Array(Array(UINT16))),
        ("empty", Array(INT32)),
        ("flags", Array(BOOL)),
        ("tail", UINT8),
    ],
    name="kitchen",
)
KITCHEN_VALUE = {
    "u8": 255,
    "u16": 0x1234,
    "u32": 2**32 - 1,
    "u64": 2**64 - 1,
    "i8": -128,
    "i16": -2,
    "i32": -(2**31),
    "i64": 2**63 - 1,
    "f32": -1.25,
    "f64": 3.141592653589793,
    "flag": True,
    "label": "Brems-Assistent ✓",
    "blob": b"\x00\xffSOME/IP",
    "origin": {"x": 0.5, "y": -0.75, "valid": False},
    "path": [
        {"x": 1.0, "y": 2.0, "valid": True},
        {"x": -3.5, "y": 0.0, "valid": False},
    ],
    "grid": [[1, 2], [], [65535]],
    "empty": [],
    "flags": [True, False, True],
    "tail": 7,
}

VEHICLE_0 = {
    "vehicle_id": 3,
    "distance_m": 42.5,
    "lateral_m": -0.25,
    "speed_mps": 13.875,
}
VEHICLE_1 = {
    "vehicle_id": 4,
    "distance_m": 87.0,
    "lateral_m": 1.5,
    "speed_mps": 22.25,
}
FRAME_VALUE = {
    "seq": 17,
    "capture_time_ns": 850_000_000,
    "ego_speed_mps": 27.5,
    "lane_center_m": 0.125,
    "lane_width_m": 3.5,
    "vehicles": [VEHICLE_0, VEHICLE_1],
}
LANE_VALUE = {"frame_seq": 17, "left_m": -1.75, "right_m": 1.75}
VEHICLES_VALUE = {
    "frame_seq": 17,
    "vehicles": [
        {"vehicle_id": 3, "distance_m": 42.5, "closing_speed_mps": -1.5},
        {"vehicle_id": 4, "distance_m": 87.0, "closing_speed_mps": 0.0},
    ],
}
BRAKE_VALUE = {"frame_seq": 17, "brake": True, "intensity": 0.625}
SD_VALUE = {
    "entries": [
        {
            "type": 1,
            "service_id": 0x0101,
            "instance_id": 1,
            "major_version": 1,
            "ttl_ms": 3000,
            "eventgroup_id": 0,
            "host": "fusion-ecu",
            "port": 30501,
        },
        {
            "type": 6,
            "service_id": 0x0102,
            "instance_id": 1,
            "major_version": 1,
            "ttl_ms": 0xFFFFFFFF,
            "eventgroup_id": 0x8001,
            "host": "",
            "port": 0,
        },
    ]
}

#: A field of struct type expands into methods and an event whose
#: payload nests that struct.
_FIELD_INTERFACE = ServiceInterface("Goldens", 0x0F00, fields=[Field("origin", POINT)])


def _method(interface: ServiceInterface, name: str):
    return next(m for m in interface.methods if m.name == name)


ENCODE: dict[str, tuple[TypeSpec, Any]] = {
    "kitchen": (KITCHEN, KITCHEN_VALUE),
    "brake-frame": (FRAME_SPEC, FRAME_VALUE),
    "brake-frame-no-vehicles": (FRAME_SPEC, {**FRAME_VALUE, "vehicles": []}),
    "brake-frame-event-data": (ADAPTER_SERVICE.events[0].data_spec, FRAME_VALUE),
    "brake-brake-event-data": (EBA_SERVICE.events[0].data_spec, BRAKE_VALUE),
    "brake-lane": (LANE_SPEC, LANE_VALUE),
    "brake-vehicles": (VEHICLES_SPEC, VEHICLES_VALUE),
    "brake-brake": (BRAKE_SPEC, BRAKE_VALUE),
    "brake-no-brake": (BRAKE_SPEC, {**BRAKE_VALUE, "brake": False}),
    "sd-payload": (_SD_PAYLOAD_SPEC, SD_VALUE),
    "sd-payload-empty": (_SD_PAYLOAD_SPEC, {"entries": []}),
    "lib-sample": (SAMPLE_SPEC, {"seq": 9, "value": -(2**40)}),
    "lib-reading": (READING_SPEC, {"seq": 2**32 - 1, "value": 12345}),
    "counter-set-value-req": (
        _method(COUNTER_INTERFACE, "set_value").request_spec,
        {"value": -7},
    ),
    "counter-set-value-res": (
        _method(COUNTER_INTERFACE, "set_value").response_spec,
        {},
    ),
    "counter-get-value-res": (
        _method(COUNTER_INTERFACE, "get_value").response_spec,
        {"value": 2**31 - 1},
    ),
    "field-set-origin-req": (
        _method(_FIELD_INTERFACE, "set_origin").request_spec,
        {"value": {"x": 0.5, "y": 0.25, "valid": True}},
    ),
    "array-nested": (Array(Array(Array(UINT8))), [[[1], []], [], [[2, 3]]]),
    "array-empty": (Array(POINT), []),
    "string": (STRING, "lane ✓"),
    "bytes": (BYTES, b"\x01\x02\x03"),
    "bool": (BOOL, True),
    "uint64": (UINT64, 2**64 - 1),
    "float32": (FLOAT32, 0.1),
}


def _raised(call: Callable[[], Any]) -> list[str]:
    try:
        call()
    except Exception as exc:  # the golden pins whatever escapes
        return [type(exc).__name__, str(exc)]
    raise AssertionError("expected an error")


def _encode_error(spec: TypeSpec, value: Any) -> list[str]:
    """The error plus the bytes the encoder appended before raising."""
    out = bytearray(b"\xaa")
    result = _raised(lambda: spec.serialize(value, out))
    return result + [out.hex()]


def _decode_error(spec: TypeSpec, data: bytes) -> list[str]:
    return _raised(lambda: spec.from_bytes(data))


def _patched(data: bytes, offset: int, byte: int) -> bytes:
    return data[:offset] + bytes([byte]) + data[offset + 1 :]


def _frame_with(**changes: Any) -> dict:
    return {**FRAME_VALUE, **changes}


def _vehicles_with(index: int, **changes: Any) -> list[dict]:
    vehicles = [dict(VEHICLE_0), dict(VEHICLE_1)]
    vehicles[index].update(changes)
    return vehicles


_FRAME_BYTES = FRAME_SPEC.to_bytes(FRAME_VALUE)
_BRAKE_BYTES = BRAKE_SPEC.to_bytes(BRAKE_VALUE)
_KITCHEN_BYTES = KITCHEN.to_bytes(KITCHEN_VALUE)
#: Offset of the ``flag`` bool and of the third ``flags`` element.
_KITCHEN_FLAG = 1 + 2 + 4 + 8 + 1 + 2 + 4 + 8 + 4 + 8
_KITCHEN_FLAGS_LAST = len(_KITCHEN_BYTES) - 2

ERRORS: dict[str, Callable[[], list[str]]] = {
    # encoding
    "frame-not-dict": lambda: _encode_error(FRAME_SPEC, [1, 2]),
    "frame-missing-field": lambda: _encode_error(
        FRAME_SPEC,
        {k: v for k, v in FRAME_VALUE.items() if k != "lane_width_m"},
    ),
    "frame-missing-first-field": lambda: _encode_error(
        FRAME_SPEC, {k: v for k, v in FRAME_VALUE.items() if k != "seq"}
    ),
    "frame-extra-field": lambda: _encode_error(
        FRAME_SPEC, _frame_with(bogus=1, also=2)
    ),
    "frame-seq-out-of-range": lambda: _encode_error(FRAME_SPEC, _frame_with(seq=-1)),
    "frame-time-out-of-range": lambda: _encode_error(
        FRAME_SPEC, _frame_with(capture_time_ns=2**63)
    ),
    "frame-speed-not-float": lambda: _encode_error(
        FRAME_SPEC, _frame_with(ego_speed_mps="fast")
    ),
    "frame-vehicles-not-sequence": lambda: _encode_error(
        FRAME_SPEC, _frame_with(vehicles=None)
    ),
    "frame-vehicle-not-dict": lambda: _encode_error(
        FRAME_SPEC, _frame_with(vehicles=[VEHICLE_0, 4])
    ),
    "frame-vehicle-missing-field": lambda: _encode_error(
        FRAME_SPEC,
        _frame_with(vehicles=[VEHICLE_0, {"vehicle_id": 4, "distance_m": 1.0}]),
    ),
    "frame-vehicle-extra-field": lambda: _encode_error(
        FRAME_SPEC, _frame_with(vehicles=_vehicles_with(1, colour="red"))
    ),
    "frame-vehicle-id-out-of-range": lambda: _encode_error(
        FRAME_SPEC, _frame_with(vehicles=_vehicles_with(1, vehicle_id=2**32))
    ),
    "frame-vehicle-speed-not-float": lambda: _encode_error(
        FRAME_SPEC, _frame_with(vehicles=_vehicles_with(1, speed_mps=[]))
    ),
    "frame-seq-none": lambda: _encode_error(FRAME_SPEC, _frame_with(seq=None)),
    "lane-right-overflow": lambda: _encode_error(
        Struct([("left_m", FLOAT32), ("right_m", FLOAT32)], name="lane32"),
        {"left_m": 1.0, "right_m": 1e40},
    ),
    "kitchen-label-not-str": lambda: _encode_error(
        KITCHEN, {**KITCHEN_VALUE, "label": b"bytes"}
    ),
    "kitchen-blob-not-bytes": lambda: _encode_error(
        KITCHEN, {**KITCHEN_VALUE, "blob": "text"}
    ),
    "kitchen-origin-missing-field": lambda: _encode_error(
        KITCHEN, {**KITCHEN_VALUE, "origin": {"x": 1.0, "valid": True}}
    ),
    "kitchen-grid-inner-out-of-range": lambda: _encode_error(
        KITCHEN, {**KITCHEN_VALUE, "grid": [[1, 2], [3, 65536]]}
    ),
    "kitchen-grid-inner-not-sequence": lambda: _encode_error(
        KITCHEN, {**KITCHEN_VALUE, "grid": [[1], "ab"]}
    ),
    "kitchen-i8-float": lambda: _encode_error(KITCHEN, {**KITCHEN_VALUE, "i8": 1.5}),
    "kitchen-tail-out-of-range": lambda: _encode_error(
        KITCHEN, {**KITCHEN_VALUE, "tail": 256}
    ),
    "uint8-out-of-range": lambda: _encode_error(UINT8, 256),
    "uint32-none": lambda: _encode_error(UINT32, None),
    "uint32-str": lambda: _encode_error(UINT32, "7"),
    "float32-overflow": lambda: _encode_error(FLOAT32, 1e40),
    "float64-none": lambda: _encode_error(FLOAT64, None),
    "array-not-sequence": lambda: _encode_error(Array(UINT8), 7),
    "array-element-out-of-range": lambda: _encode_error(Array(UINT8), [1, 2, 300, 4]),
    # decoding
    "brake-invalid-bool": lambda: _decode_error(
        BRAKE_SPEC, _patched(_BRAKE_BYTES, 4, 2)
    ),
    "kitchen-invalid-flag": lambda: _decode_error(
        KITCHEN, _patched(_KITCHEN_BYTES, _KITCHEN_FLAG, 0x80)
    ),
    "kitchen-invalid-array-bool": lambda: _decode_error(
        KITCHEN, _patched(_KITCHEN_BYTES, _KITCHEN_FLAGS_LAST, 0xFF)
    ),
    "kitchen-invalid-utf8": lambda: _decode_error(
        KITCHEN, _patched(_KITCHEN_BYTES, _KITCHEN_FLAG + 1 + 4, 0xFF)
    ),
    "frame-trailing-bytes": lambda: _decode_error(FRAME_SPEC, _FRAME_BYTES + b"\0"),
    "kitchen-trailing-bytes": lambda: _decode_error(
        KITCHEN, _KITCHEN_BYTES + b"\0\0\0"
    ),
    "frame-huge-vehicle-count": lambda: _decode_error(
        FRAME_SPEC, _FRAME_BYTES[:36] + b"\xff\xff\xff\xff" + _FRAME_BYTES[40:]
    ),
}

#: Payloads whose every proper prefix is decoded in ``truncated/*``.
TRUNCATED: dict[str, tuple[TypeSpec, bytes]] = {
    "brake-frame": (FRAME_SPEC, _FRAME_BYTES),
    "brake-lane": (LANE_SPEC, LANE_SPEC.to_bytes(LANE_VALUE)),
    "brake-vehicles": (VEHICLES_SPEC, VEHICLES_SPEC.to_bytes(VEHICLES_VALUE)),
    "brake-brake": (BRAKE_SPEC, _BRAKE_BYTES),
    "sd-payload": (_SD_PAYLOAD_SPEC, _SD_PAYLOAD_SPEC.to_bytes(SD_VALUE)),
    "kitchen": (KITCHEN, _KITCHEN_BYTES),
}

_HEADER = struct.Struct(">HHIHHBBBB")


def _raw_message(
    message_type: int = 0x02,
    return_code: int = 0x00,
    protocol: int = 0x01,
    payload: bytes = b"\x01\x02",
    length_delta: int = 0,
) -> bytes:
    length = len(payload) + 8 + length_delta
    header = _HEADER.pack(
        0x0101, 0x8001, length, 0, 5, protocol, 1, message_type, return_code
    )
    return header + payload


def _unpacked(data: bytes) -> list:
    message = SomeIpMessage.unpack(data)
    header = message.header
    tag = message.native_tag
    return [
        header.service_id,
        header.method_id,
        header.client_id,
        header.session_id,
        header.interface_version,
        header.message_type.name,
        header.return_code.name,
        header.protocol_version,
        message.payload.hex(),
        None if tag is None else [tag.time, tag.microstep],
    ]


_NOTIFY = SomeIpHeader(
    service_id=0x0101,
    method_id=0x8001,
    client_id=0,
    session_id=0xFFFF,
    message_type=MessageType.NOTIFICATION,
)
_TAG = Tag(850_000_000, 3)

MESSAGES: dict[str, Callable[[], Any]] = {
    "pack-v1": lambda: SomeIpMessage(_NOTIFY, _BRAKE_BYTES).pack().hex(),
    "pack-v1-trailer": lambda: SomeIpMessage(
        _NOTIFY, attach_tag(_BRAKE_BYTES, _TAG)
    ).pack().hex(),
    "pack-v2-native": lambda: SomeIpMessage(_NOTIFY, _BRAKE_BYTES, _TAG).pack().hex(),
    "unpack-v1": lambda: _unpacked(SomeIpMessage(_NOTIFY, _BRAKE_BYTES).pack()),
    "unpack-v2-native": lambda: _unpacked(
        SomeIpMessage(_NOTIFY, _BRAKE_BYTES, _TAG).pack()
    ),
    "unpack-every-type-and-code": lambda: [
        _unpacked(_raw_message(message_type=t, return_code=c))[5:7]
        for t in (0x00, 0x01, 0x02, 0x80, 0x81)
        for c in range(0x0B)
    ],
    "error-truncated-header": lambda: _raised(
        lambda: SomeIpMessage.unpack(_raw_message()[:15])
    ),
    "error-length-mismatch": lambda: _raised(
        lambda: SomeIpMessage.unpack(_raw_message(length_delta=3))
    ),
    "error-protocol-version": lambda: _raised(
        lambda: SomeIpMessage.unpack(_raw_message(protocol=0x03))
    ),
    "error-v2-without-tag": lambda: _raised(
        lambda: SomeIpMessage.unpack(_raw_message(protocol=0x02))
    ),
    "error-unknown-message-type": lambda: _raised(
        lambda: SomeIpMessage.unpack(_raw_message(message_type=0x42))
    ),
    "error-unknown-return-code": lambda: _raised(
        lambda: SomeIpMessage.unpack(_raw_message(return_code=0x77))
    ),
    "error-unknown-type-and-code": lambda: _raised(
        lambda: SomeIpMessage.unpack(_raw_message(message_type=0x03, return_code=0x0B))
    ),
}


def _truncations(spec: TypeSpec, data: bytes) -> list[list]:
    return [[k] + _decode_error(spec, data[:k]) for k in range(len(data))]


def _cases() -> dict[str, Callable[[], Any]]:
    cases: dict[str, Callable[[], Any]] = {}
    for name, (spec, value) in ENCODE.items():
        cases[f"encode/{name}"] = lambda s=spec, v=value: s.to_bytes(v).hex()
    for name, call in ERRORS.items():
        cases[f"error/{name}"] = call
    for name, (spec, data) in TRUNCATED.items():
        cases[f"truncated/{name}"] = lambda s=spec, d=data: _truncations(s, d)
    for name, call in MESSAGES.items():
        cases[f"message/{name}"] = call
    return cases


CASES = _cases()


def _collect() -> dict[str, Any]:
    return {name: CASES[name]() for name in sorted(CASES)}


def _load_goldens() -> dict[str, Any]:
    with GOLDEN_PATH.open() as fh:
        data = json.load(fh)
    assert data["format"] == FORMAT
    return data["cases"]


def test_every_case_has_a_golden():
    assert sorted(_load_goldens()) == sorted(CASES)
    assert BUGFIX_CASES <= set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_codec_golden(name):
    assert CASES[name]() == _load_goldens()[name]


@pytest.mark.parametrize("name", sorted(ENCODE))
def test_golden_bytes_decode_to_the_sample(name):
    spec, value = ENCODE[name]
    data = bytes.fromhex(_load_goldens()[f"encode/{name}"])
    decoded = spec.from_bytes(data)
    if name == "float32":
        assert decoded == struct.unpack(">f", struct.pack(">f", value))[0]
    else:
        assert decoded == value


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python tests/test_someip_codec_goldens.py --capture")
    payload = {"format": FORMAT, "cases": _collect()}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['cases'])} cases to {GOLDEN_PATH}")
