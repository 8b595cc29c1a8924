"""A SOME/IP middleware over the simulated network.

Implements the protocol pieces the paper's system relies on:

* :mod:`repro.someip.wire` — the 16-byte SOME/IP header, message types
  and return codes, packed to real bytes;
* :mod:`repro.someip.serialization` — typed payload serializers
  (integers, floats, strings, arrays, structs), generated like an AP
  toolchain's by :mod:`repro.someip.codegen`: each struct or array
  layout is compiled once into flat pack/unpack code, and a failed
  check re-runs its field group field by field for the exact error;
* :mod:`repro.someip.sd` — service discovery: cyclic offers, find
  requests, event-group subscriptions with TTL;
* :mod:`repro.someip.runtime` — the per-process endpoint daemon routing
  requests, responses and notifications;
* :mod:`repro.someip.tagging` — the paper's extension: optional tag
  trailers on messages plus the *timestamp bypass* used by DEAR
  transactors (Section III.B).
"""

from repro.someip.wire import (
    MessageType,
    ReturnCode,
    SomeIpHeader,
    SomeIpMessage,
)
from repro.someip.serialization import (
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
    TypeSpec,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
)
from repro.someip.sd import SdConfig, SdDaemon
from repro.someip.runtime import SomeIpEndpoint
from repro.someip.tagging import TimestampBypass, attach_tag, extract_tag

__all__ = [
    "SomeIpHeader",
    "SomeIpMessage",
    "MessageType",
    "ReturnCode",
    "TypeSpec",
    "Struct",
    "Array",
    "BOOL",
    "BYTES",
    "STRING",
    "FLOAT32",
    "FLOAT64",
    "INT8",
    "INT16",
    "INT32",
    "INT64",
    "UINT8",
    "UINT16",
    "UINT32",
    "UINT64",
    "SdDaemon",
    "SdConfig",
    "SomeIpEndpoint",
    "TimestampBypass",
    "attach_tag",
    "extract_tag",
]
