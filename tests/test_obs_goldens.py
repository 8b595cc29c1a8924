"""Observability goldens: what the observed CLI runs print and write.

``tests/data/obs_goldens.json`` pins the artifacts of every path that
runs a seed under :func:`repro.obs.capture` or renders a Perfetto
document:

* ``cli/<case>``: the exit code, stdout and every ``--out``,
  ``--metrics-out`` and ``--trace-out`` file of ``repro trace``,
  ``repro metrics``, ``repro flows`` (brake with and without
  ``--drop``, and each library app) and a figure command's
  representative observed run.  The CLI runs
  in-process, single-worker and without the result store; output paths
  are normalized and stderr is dropped.  A simulation trace is pinned
  as the digest of its events with each ``args.wall_ns`` (host time)
  removed, beside its event count, thread names and per-thread phase
  counts.
* ``fleet/<case>``: the fleet trace of the fixed-clock campaigns of
  ``tests/test_fleet_telemetry.py``: per event its phase, name, thread
  and args exactly, its ``ts``/``dur`` rounded to and compared within
  1e-3 us.  The category is not pinned.

To refresh after an *intentional* change, run
``PYTHONPATH=src python tests/test_obs_goldens.py --capture`` and
explain the change in the commit message.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.cli import main
from repro.harness.sweep import ResultStore
from repro.obs import fleet_trace_events
from repro.service import Coordinator, CoordinatorConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "obs_goldens.json"
FORMAT = "obs-goldens/v1"

#: Flags every CLI case appends: in-process and store-free.
_ISOLATED = ["--workers", "1", "--no-cache"]

#: Tolerance of fleet ``ts``/``dur`` values, in microseconds.
_FLEET_US_TOLERANCE = 1e-3

#: Each CLI case: its argv, where ``{T}``/``{M}``/``{R}``/``{A}`` name
#: output files, and how each output file is pinned.
CLI_CASES: dict[str, tuple[list[str], dict[str, str]]] = {
    "trace-det": (
        ["trace", "det", "--seed", "0", "--frames", "30",
         "--trace-out", "{T}", "--metrics-out", "{M}"],
        {"T": "trace", "M": "json"},
    ),
    "metrics-det": (
        ["metrics", "det", "--seeds", "2", "--frames", "20",
         "--metrics-out", "{A}"],
        {"A": "json"},
    ),
    "flows-both": (
        ["flows", "--seeds", "2", "--frames", "30", "--out", "{R}",
         "--trace-out", "{T}"],
        {"R": "json", "T": "trace"},
    ),
    "flows-det-drop": (
        ["flows", "--variant", "det", "--seeds", "1", "--frames", "30",
         "--drop", "0.2", "--out", "{R}"],
        {"R": "json"},
    ),
    # The library apps: both variants' reports plus the det trace, and
    # the stock trace on its own.  Failover needs 200 frames to reach
    # its outage (and its no-subscriber drops).
    "flows-fusion": (
        ["flows", "--app", "fusion", "--seeds", "1", "--frames", "40",
         "--out", "{R}", "--trace-out", "{T}"],
        {"R": "json", "T": "trace"},
    ),
    "flows-fusion-nondet": (
        ["flows", "--app", "fusion", "--variant", "nondet", "--seeds", "1",
         "--frames", "40", "--trace-out", "{T}"],
        {"T": "trace"},
    ),
    "flows-failover": (
        ["flows", "--app", "failover", "--seeds", "1", "--frames", "200",
         "--out", "{R}", "--trace-out", "{T}"],
        {"R": "json", "T": "trace"},
    ),
    "flows-failover-nondet": (
        ["flows", "--app", "failover", "--variant", "nondet", "--seeds", "1",
         "--frames", "200", "--trace-out", "{T}"],
        {"T": "trace"},
    ),
    "flows-mixedcrit": (
        ["flows", "--app", "mixedcrit", "--seeds", "2", "--frames", "40",
         "--out", "{R}", "--trace-out", "{T}"],
        {"R": "json", "T": "trace"},
    ),
    "flows-mixedcrit-nondet": (
        ["flows", "--app", "mixedcrit", "--variant", "nondet", "--seeds", "1",
         "--frames", "40", "--trace-out", "{T}"],
        {"T": "trace"},
    ),
    "fig5-observed": (
        ["fig5", "--runs", "1", "--frames", "20",
         "--trace-out", "{T}", "--metrics-out", "{M}"],
        {"T": "trace", "M": "json"},
    ),
}


def _trace_summary(document: dict) -> dict[str, Any]:
    events = document["traceEvents"]
    for event in events:
        event.get("args", {}).pop("wall_ns", None)
    threads = {
        event["tid"]: event["args"]["name"]
        for event in events
        if event["ph"] == "M" and event["name"] == "thread_name"
    }
    phases: dict[str, int] = {}
    for event in events:
        if event["ph"] != "M":
            key = f"{threads[event['tid']]}/{event['ph']}"
            phases[key] = phases.get(key, 0) + 1
    canonical = json.dumps(events, sort_keys=True).encode()
    return {
        "events": len(events),
        "sha256": hashlib.sha256(canonical).hexdigest(),
        "threads": [threads[tid] for tid in sorted(threads)],
        "phases": dict(sorted(phases.items())),
    }


def _cli_case(name: str) -> dict[str, Any]:
    argv, outputs = CLI_CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: str(Path(tmp) / f"{key}.json") for key in outputs}
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([arg.format(**paths) for arg in argv] + _ISOLATED)
        files = {}
        for key, kind in outputs.items():
            document = json.loads(Path(paths[key]).read_text())
            files[key] = _trace_summary(document) if kind == "trace" else document
        return {
            "exit": code,
            "stdout": stdout.getvalue().replace(tmp, "<tmp>"),
            "files": files,
        }


def _on_grid(us: float | None) -> float | None:
    """*us* rounded to the 1e-3 us grid of :data:`_FLEET_US_TOLERANCE`, so
    float noise in the fleet clock arithmetic never reaches the golden
    file and ``--capture`` is idempotent."""
    return None if us is None else round(us, 3)


def _fleet_events(report: dict) -> list[dict[str, Any]]:
    return [
        {
            "ph": event["ph"],
            "name": event["name"],
            "tid": event["tid"],
            "args": event.get("args"),
            "ts": _on_grid(event.get("ts")),
            "dur": _on_grid(event.get("dur")),
        }
        for event in fleet_trace_events(report)
    ]


def _fleet_case(kind: str) -> list[dict[str, Any]]:
    from tests.test_fleet_telemetry import FakeClock, TestFleetTrace, make_spec

    clock = FakeClock()
    # The configuration of test_fleet_telemetry's ``clocked`` fixture.
    config = CoordinatorConfig(
        chunk_size=2,
        max_attempts=3,
        lease_ttl_s=5.0,
        job_timeout_s=60.0,
        retry_backoff_s=1.0,
    )
    with tempfile.TemporaryDirectory() as tmp:
        coordinator = Coordinator(ResultStore(tmp), config, clock=clock)
        if kind == "unfinished":
            status = coordinator.submit(make_spec(seeds=(0, 1, 2)))
            coordinator.lease(coordinator.register())
            report = coordinator.report(status["campaign"])
        else:
            report = TestFleetTrace().run_campaign(
                coordinator, clock, with_requeue=kind == "requeue"
            )
    return _fleet_events(report)


def _cases() -> dict[str, Callable[[], Any]]:
    cases: dict[str, Callable[[], Any]] = {
        f"cli/{name}": (lambda n=name: _cli_case(n)) for name in CLI_CASES
    }
    for kind in ("campaign", "requeue", "unfinished"):
        cases[f"fleet/{kind}"] = lambda k=kind: _fleet_case(k)
    return cases


CASES = _cases()


def _load_goldens() -> dict[str, Any]:
    with GOLDEN_PATH.open() as fh:
        data = json.load(fh)
    assert data["format"] == FORMAT
    return data["cases"]


def _assert_fleet_matches(actual: list[dict], golden: list[dict]) -> None:
    assert len(actual) == len(golden)
    for got, want in zip(actual, golden):
        exact = ("ph", "name", "tid", "args")
        assert {k: got[k] for k in exact} == {k: want[k] for k in exact}
        for key in ("ts", "dur"):
            if want[key] is None:
                assert got[key] is None, (key, got)
            else:
                assert got[key] == pytest.approx(
                    want[key], abs=_FLEET_US_TOLERANCE
                ), (key, got)


def test_every_case_has_a_golden():
    assert sorted(_load_goldens()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_obs_golden(name):
    actual = CASES[name]()
    golden = _load_goldens()[name]
    if name.startswith("fleet/"):
        _assert_fleet_matches(actual, golden)
    else:
        assert actual == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python tests/test_obs_goldens.py --capture")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # tests.*
    payload = {"format": FORMAT, "cases": {n: CASES[n]() for n in sorted(CASES)}}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['cases'])} cases to {GOLDEN_PATH}")
