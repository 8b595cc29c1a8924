"""The run path's import graph: a run imports only the code it runs.

Every fresh interpreter (an e2e rep, a ``spawn`` sweep worker, a service
worker, a ``repro`` command) pays for each module it imports before its
first frame, and compiles it from source when bytecode caching is off.
These tests run seeds in a fresh ``sys.executable`` and assert, by
name, which modules a run must not have loaded: a stray top-level
import fails here exactly, with no timing involved.  They also check
that everything moved off the run path still resolves when asked for.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs the ``(app, variant)`` pairs of argv[1] at a few frames, then
#: prints the loaded module names.
_RUN = """
import json, sys
from dataclasses import replace
from repro.apps import registry
from repro.harness import ScenarioSpec

for app, variant in json.loads(sys.argv[1]):
    scenario = replace(registry.get(app).default_scenario(), n_frames=5)
    spec = ScenarioSpec(app=app, variant=variant, seeds=(0,), scenario=scenario)
    spec.run_one(0)
print(json.dumps(sorted(sys.modules)))
"""

#: Loaded by no run: the figure code and its statistics, reports, the
#: service, snapshots, the CLI, the LET baseline, the bench-diff gate,
#: exploration beyond the decision-trace format, fault shrinking, the
#: Perfetto/metrics exporters and the sweep process pool.
NOT_RUN = (
    "numpy",
    "repro.harness.figures",
    "repro.harness.extensions",
    "repro.harness.benchdiff",
    "repro.harness.benchjson",
    "repro.analysis",
    "repro.service",
    "repro.snapshot",
    "repro.cli",
    "repro.let",
    "repro.explore.explorer",
    "repro.explore.strategies",
    "repro.explore.shrink",
    "repro.explore.verify",
    "repro.explore.scenarios",
    "repro.faults.shrink",
    "repro.obs.export",
    "concurrent.futures",
)

#: Also not loaded by a stock run without faults: the DEAR variant, its
#: transactors, the reactor runtime, the fault injector and the
#: decision-trace format it records in.
NOT_RUN_STOCK = (
    "repro.apps.brake.det",
    "repro.faults.injector",
    "repro.explore",
    "repro.reactors",
    "repro.dear.transactor",
    "repro.dear.event_client",
    "repro.dear.event_server",
    "repro.dear.method_client",
    "repro.dear.method_server",
    "repro.dear.fields",
    "repro.dear.codegen",
)


def _fresh(code: str, *args: str) -> object:
    """Run *code* in a fresh interpreter; the JSON of its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loaded(runs: list[tuple[str, str]]) -> set[str]:
    return set(_fresh(_RUN, json.dumps(runs)))


def _offenders(loaded: set[str], names: tuple[str, ...]) -> list[str]:
    """The loaded modules that are one of *names* or inside one."""
    return sorted(
        module
        for module in loaded
        if any(module == name or module.startswith(name + ".") for name in names)
    )


@pytest.fixture(scope="module")
def mixed_run() -> set[str]:
    return _loaded([("brake", "nondet"), ("brake", "det"), ("failover", "det")])


@pytest.fixture(scope="module")
def stock_run() -> set[str]:
    return _loaded([("brake", "nondet")])


def test_runs_load_the_run_path(mixed_run):
    """The probe itself works: the code a run executes is loaded."""
    for module in (
        "repro.apps.brake.nondet",
        "repro.apps.brake.det",
        "repro.apps.lib.failover",
        "repro.dear.transactor",
        "repro.reactors.scheduler",
        "repro.faults.injector",
        "repro.explore.decisions",
    ):
        assert module in mixed_run


def test_runs_load_nothing_they_do_not_run(mixed_run):
    assert _offenders(mixed_run, NOT_RUN) == []


def test_stock_run_loads_no_dear_reactors_or_injector(stock_run):
    assert _offenders(stock_run, NOT_RUN + NOT_RUN_STOCK) == []
    assert "repro.dear.stp" in stock_run  # its configuration types are


_APP_NAMES = """
import json, sys
from repro import apps

print(json.dumps({"names": list(apps.names()), "modules": sorted(sys.modules)}))
"""


def test_listing_apps_loads_no_simulation_stack():
    """``apps.names()`` (every ``repro`` command's ``--app`` choices)
    loads the scenario types, not the simulator, network or SOME/IP."""
    listed = _fresh(_APP_NAMES)
    assert listed["names"] == ["brake", "failover", "fusion", "mixedcrit"]
    loaded = set(listed["modules"])
    assert "repro.apps.lib.scenarios" in loaded
    assert _offenders(loaded, ("repro.sim", "repro.someip", "repro.network")) == []


_NAMES = """
import importlib, json
from repro.harness import figures
from repro.explore import Explorer, PctStrategy
from repro.faults import shrink_fault_trace
from repro.harness.benchdiff import compare_dirs, render_bench_diff

missing = []
for package in (
    "repro.apps.brake", "repro.apps.lib", "repro.dear", "repro.explore",
    "repro.faults", "repro.harness", "repro.obs",
):
    module = importlib.import_module(package)
    missing += [f"{package}.{name}" for name in module.__all__
                if not hasattr(module, name)]
print(json.dumps({"missing": missing, "figure5": callable(figures.figure5)}))
"""


def test_public_names_still_resolve():
    """Every exported name loads on demand in a fresh interpreter."""
    assert _fresh(_NAMES) == {"missing": [], "figure5": True}


_NUMPY_ON_DEMAND = """
import json, sys
from repro.analysis.stats import summarize
from repro.apps.brake.logic import detect_vehicles, preprocess
from repro.apps.brake.vision import SceneGenerator

imported = "numpy" in sys.modules
frame = SceneGenerator(50_000_000).frame(10)
lane = preprocess(frame, use_image=True)
vehicles = detect_vehicles(frame, lane, use_image=True)
summary = summarize([4.0, 1.0, 3.0, 2.0])
print(json.dumps({
    "numpy_at_import": imported,
    "numpy_after": "numpy" in sys.modules,
    "lane_ordered": lane.left_m < lane.right_m,
    "vehicles": len(vehicles.vehicles),
    "summary": [summary.count, summary.minimum, summary.median, summary.maximum],
}))
"""


def test_image_pipeline_and_summaries_load_numpy_on_demand():
    result = _fresh(_NUMPY_ON_DEMAND)
    assert result["numpy_at_import"] is False
    assert result["numpy_after"] is True
    assert result["lane_ordered"] is True
    assert result["vehicles"] >= 1
    assert result["summary"] == [4, 1.0, 2.5, 4.0]
