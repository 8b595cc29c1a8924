"""World goldens: the networked worlds outside the brake kernel goldens.

``tests/test_kernel_fingerprints.py`` pins the brake runs.  This module
pins every other world built on the AP communication stack (switch,
platforms, NICs, SOME/IP SD daemons), so a change to how a world is put
together that moves a single RNG draw or event fails here:

* the Figure 1 counter app: ``run_nondet``, the four source-ablation
  ``run_variant`` configurations and ``run_det``;
* the text renders of Figure 3, the clock-skew, pipeline-scaling,
  native-transport and LET extensions, and the distributed brake table
  (whose third ECU runs a skewed clock);
* ``outcome_digest()`` of every registered app in both variants, plus
  the seed-fixed network of the ``deterministic_inputs`` /
  ``deterministic_camera`` scenarios, directly and through
  :class:`~repro.harness.config.ScenarioSpec`.

Every sweep runs in-process without the result store.  To refresh after
an *intentional* semantic change, run
``PYTHONPATH=src python tests/test_world_goldens.py --capture`` and
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
from repro.apps.counter import run_det, run_nondet, run_variant
from repro.ara import MethodCallProcessingMode
from repro.harness import extensions, figures
from repro.harness.config import NetworkSpec, ScenarioSpec, run_scenario_spec
from repro.harness.sweep import SweepRunner

GOLDEN_PATH = Path(__file__).parent / "data" / "world_goldens.json"
FORMAT = "world-goldens/v1"

APPS = ("brake", "failover", "fusion", "mixedcrit")
FRAMES = 30

_SINGLE = MethodCallProcessingMode.EVENT_SINGLE_THREAD
#: The four configurations of ``figures.ablation_sources``.
ABLATION = {
    "thread-per-invocation": {},
    "serialized-fifo": {"processing_mode": _SINGLE},
    "unordered": {"processing_mode": _SINGLE, "in_order": False},
    "two-clients": {"processing_mode": _SINGLE, "two_clients": True},
}


def _sweep() -> SweepRunner:
    return SweepRunner(workers=1, use_cache=False)


def _printed(run: Callable, seeds: range, **kwargs) -> list[int]:
    return [run(seed, **kwargs).printed_value for seed in seeds]


def _scenario(app: str, calm: bool = False) -> Any:
    definition = registry.get(app)
    scenario = replace(definition.default_scenario(), n_frames=FRAMES)
    if not calm:
        return scenario
    return replace(scenario, **{definition.fixed_inputs_knob: True})


def _outcome(app: str, variant: str, seed: int, calm: bool = False) -> str:
    runner = registry.get(app).runner(variant)
    return runner(seed, _scenario(app, calm)).outcome_digest()


def _spec_outcome(app: str) -> str:
    """A non-default network on a seed-fixed scenario, through the spec."""
    spec = ScenarioSpec(
        "det", scenario=_scenario(app, calm=True), app=app,
        network=NetworkSpec(ns_per_byte=4),
    )
    return run_scenario_spec(0, spec).outcome_digest()


def _cases() -> dict[str, Callable[[], Any]]:
    cases: dict[str, Callable[[], Any]] = {
        "counter/nondet": lambda: _printed(run_nondet, range(40)),
        "counter/det": lambda: _printed(run_det, range(4)),
        "render/figure3": lambda: figures.figure3_sequence().render(),
        "render/let": lambda: figures.let_baseline(
            n_frames=60, sweep=_sweep()
        ).render(),
        "render/skew": lambda: extensions.clock_skew_sweep(
            sweep=_sweep()
        ).render(),
        "render/scaling": lambda: extensions.pipeline_scaling(
            sweep=_sweep()
        ).render(),
        "render/native": lambda: extensions.native_transport_comparison(
            sweep=_sweep()
        ).render(),
        "render/distributed": lambda: extensions.distributed_brake(
            n_frames=40, sweep=_sweep()
        ).render(),
    }
    for label, kwargs in ABLATION.items():
        cases[f"counter/variant-{label}"] = (
            lambda kwargs=kwargs: _printed(run_variant, range(25), **kwargs)
        )
    for app in APPS:
        for variant in ("det", "nondet"):
            for seed in (0, 1):
                cases[f"outcome/{app}-{variant}-seed{seed}"] = (
                    lambda a=app, v=variant, s=seed: _outcome(a, v, s)
                )
        cases[f"outcome/{app}-det-calm-seed0"] = (
            lambda a=app: _outcome(a, "det", 0, calm=True)
        )
        cases[f"spec/{app}-det-calm-network"] = lambda a=app: _spec_outcome(a)
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
def test_world_golden(name):
    assert CASES[name]() == _load_goldens()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python tests/test_world_goldens.py --capture")
    payload = {"format": FORMAT, "cases": _collect()}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['cases'])} cases to {GOLDEN_PATH}")
