"""Trace goldens: the exact bytes behind ``Trace.fingerprint()``.

The kernel goldens pin the brake traces, and ``world_goldens.json``
pins only ``outcome_digest()``, which excludes traces.  This module
pins the logical trace itself, so a change to how records are stored,
rendered or hashed that moves a single byte fails here:

* ``lines()`` and ``fingerprint()`` of hand-built traces covering every
  record kind the runtime emits, a non-zero ``origin``, microsteps, and
  ``""``, ``None``, float, nested-dict and space-containing values,
  and one trace long enough to span several hashing batches;
* the per-environment ``trace_fingerprints`` of the fusion, mixedcrit
  and failover det runs, seeds 0-1 at 30 frames.

To refresh after an *intentional* change to the trace format, run
``PYTHONPATH=src python tests/test_trace_goldens.py --capture`` and
explain the change in the commit message.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.apps import registry
from repro.reactors.telemetry import Trace
from repro.time import MS, Tag

GOLDEN_PATH = Path(__file__).parent / "data" / "trace_goldens.json"
FORMAT = "trace-goldens/v1"

APPS = ("failover", "fusion", "mixedcrit")
FRAMES = 30

#: Every record kind the reactor runtime and the DEAR transactors emit.
KINDS = (
    "reaction",
    "set",
    "deadline-miss",
    "stp-violation",
    "late-dropped",
    "late-substituted",
    "deadline-fault",
    "send-deadline-miss",
)

#: Port values of the kinds that flow through real programs.
VALUES = (
    "",
    None,
    0,
    -7,
    False,
    1.5,
    float("nan"),
    "has two spaces",
    "",
    b"\x00raw",
    (1, "a b"),
    [0.25, None],
    {"speed": 12.5, "nested": {"obstacle": [1, 2], "label": "a car"}},
)


def _kinds_trace() -> Trace:
    trace = Trace()
    for index, kind in enumerate(KINDS):
        trace.record(Tag(index * MS, index % 3), kind, f"main.r{index}")
    trace.reaction(Tag(9 * MS, 0), "main.r.react")
    trace.record(Tag(9 * MS, 0), "set", "main.r.out", 3)
    trace.deadline_miss(Tag(9 * MS, 1), "main.r.react", 1234)
    return trace


def _values_trace() -> Trace:
    trace = Trace()
    trace.origin = 5 * MS
    for index, value in enumerate(VALUES):
        tag = Tag(5 * MS + (index // 4) * MS, index % 4)
        trace.record(tag, "set", f"top.child.port{index % 3}", value)
    return trace


def _disabled_trace() -> Trace:
    trace = Trace(enabled=False)
    trace.record(Tag(0, 0), "set", "main.out", 1)
    trace.reaction(Tag(0, 0), "main.react")
    return trace


def _long_trace() -> dict[str, Any]:
    """Enough records to span several hashing batches."""
    trace = Trace()
    trace.origin = 3
    for index in range(1300):
        tag = Tag(3 + index // 7, index % 7)
        trace.reaction(tag, f"main.r{index % 5}")
        trace.record(tag, "set", "main.out", {"i": index, "half": index / 2})
    return {"fingerprint": trace.fingerprint(), "records": len(trace)}


def _hand_built(build: Callable[[], Trace]) -> dict[str, Any]:
    trace = build()
    return {"fingerprint": trace.fingerprint(), "lines": trace.lines()}


def _library(app: str, seed: int) -> dict[str, str]:
    scenario = replace(registry.get(app).default_scenario(), n_frames=FRAMES)
    result = registry.get(app).runner("det")(seed, scenario)
    return dict(result.trace_fingerprints)


def _cases() -> dict[str, Callable[[], Any]]:
    cases: dict[str, Callable[[], Any]] = {
        "hand/kinds": lambda: _hand_built(_kinds_trace),
        "hand/values-origin": lambda: _hand_built(_values_trace),
        "hand/disabled": lambda: _hand_built(_disabled_trace),
        "hand/empty": lambda: _hand_built(Trace),
        "hand/long": _long_trace,
    }
    for app in APPS:
        for seed in (0, 1):
            cases[f"library/{app}-det-seed{seed}"] = (
                lambda a=app, s=seed: _library(a, s)
            )
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_golden(name):
    assert CASES[name]() == _load_goldens()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python tests/test_trace_goldens.py --capture")
    payload = {"format": FORMAT, "cases": _collect()}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['cases'])} cases to {GOLDEN_PATH}")
