"""CLI goldens: every flag of every subcommand, and the sweep keys.

Two things are pinned in ``tests/data/cli_goldens.json``:

* ``parser/<command>``: for every subcommand, each argparse action's
  option strings, ``dest``, default, type name, choices, ``nargs``,
  ``required`` and help text (plus the top-level list of subcommands
  and their help lines).  A refactor of how the parser is built must
  leave every flag and every ``--help`` line as it was.
* ``sweeps/<case>``: the exit code and the ``(name, params, seeds)`` of
  every :meth:`SweepRunner.run` call a CLI invocation makes — which
  covers ``map`` and ``run_spec`` — at tiny sizes.  :func:`record_key`
  hashes exactly these values (plus the code fingerprint), so an
  unchanged golden means existing result stores stay addressable.
  The labels of :meth:`SweepRunner.run_spec` specs ride along: they
  name reports, not store entries.

The sweeps run in-process, single-worker, without the result store.
To refresh after an *intentional* change, run
``PYTHONPATH=src python tests/test_cli_goldens.py --capture`` and
explain the change in the commit message.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path
from typing import Any

import pytest

from repro.cli import build_parser, main
from repro.harness.sweep import SweepRunner, _jsonable_seed

GOLDEN_PATH = Path(__file__).parent / "data" / "cli_goldens.json"
FORMAT = "cli-goldens/v1"

#: Flags every sweep case appends: in-process and store-free.
_ISOLATED = ["--workers", "1", "--no-cache"]


def _jsonable(value: Any) -> Any:
    return json.loads(json.dumps(value, sort_keys=True, default=repr))


def _action_entry(action: argparse.Action) -> dict:
    kind = action.type
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": _jsonable(action.default),
        "type": None if kind is None else getattr(kind, "__name__", repr(kind)),
        "choices": None if action.choices is None else list(action.choices),
        "nargs": action.nargs,
        "required": action.required,
        "help": action.help,
    }


def _subcommands() -> argparse._SubParsersAction:
    parser = build_parser()
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action


def _parser_cases() -> dict[str, Any]:
    subcommands = _subcommands()
    cases: dict[str, Any] = {
        "parser/(commands)": [
            [choice.dest, choice.help] for choice in subcommands._choices_actions
        ],
    }
    for name, sub in subcommands.choices.items():
        cases[f"parser/{name}"] = sorted(
            (_action_entry(action) for action in sub._actions),
            key=lambda entry: (entry["dest"], entry["option_strings"]),
        )
    return cases


def _sweep_argvs() -> dict[str, list[str]]:
    argvs = {
        "fig1": ["fig1", "--seeds", "2"],
        "fig5": ["fig5", "--runs", "1", "--frames", "20"],
        "det": ["det", "--seeds", "1", "--frames", "20"],
        "tradeoff": ["tradeoff", "--frames", "20"],
        "ablation": ["ablation", "--seeds", "1"],
        "overhead": ["overhead", "--frames", "20"],
        "let": ["let", "--frames", "20"],
        "skew": ["skew"],
        "scaling": ["scaling"],
        "native": ["native"],
        "distributed": ["distributed", "--frames", "20"],
    }
    for app in ("brake", "fusion"):
        # No --frames: the per-app frame defaults are part of the key.
        argvs[f"faults-{app}"] = [
            "faults", "--app", app, "--seeds", "1", "--no-snapshot",
        ]
        argvs[f"flows-{app}"] = ["flows", "--app", app, "--seeds", "1"]
        argvs[f"metrics-{app}"] = [
            "metrics", "det", "--app", app, "--seeds", "1",
        ]
        argvs[f"explore-verify-{app}"] = [
            "explore", "--app", app, "--budget", "1", "--frames", "20",
            "--verify", "1", "--no-snapshot",
        ]
    return argvs


SWEEP_ARGVS = _sweep_argvs()


def _record_sweeps(argv: list[str]) -> dict[str, Any]:
    """Run the CLI on *argv*, spying on every :meth:`SweepRunner.run`."""
    calls: list[list[Any]] = []
    labels: list[str] = []
    real_run, real_run_spec = SweepRunner.run, SweepRunner.run_spec

    def spy(self, experiment, seeds, *, name, params=None):
        seeds = list(seeds)
        calls.append(
            [name, _jsonable(params or {}), [_jsonable_seed(s) for s in seeds]]
        )
        return real_run(self, experiment, seeds, name=name, params=params)

    def spy_spec(self, spec):
        labels.append(spec.label)
        return real_run_spec(self, spec)

    SweepRunner.run, SweepRunner.run_spec = spy, spy_spec
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, *_ISOLATED])
    finally:
        SweepRunner.run, SweepRunner.run_spec = real_run, real_run_spec
    return {"exit": code, "sweeps": calls, "spec_labels": labels}


def _cases() -> dict[str, Any]:
    cases: dict[str, Any] = {name: None for name in _parser_cases()}
    cases.update({f"sweeps/{name}": None for name in SWEEP_ARGVS})
    return cases


def _compute(name: str) -> Any:
    kind, _, key = name.partition("/")
    if kind == "parser":
        return _parser_cases()[name]
    return _record_sweeps(SWEEP_ARGVS[key])


CASES = sorted(_cases())


def _collect() -> dict[str, Any]:
    return {name: _compute(name) for name in CASES}


def _load_goldens() -> dict[str, Any]:
    with GOLDEN_PATH.open() as fh:
        data = json.load(fh)
    assert data["format"] == FORMAT
    return data["cases"]


def test_every_case_has_a_golden():
    assert sorted(_load_goldens()) == CASES


@pytest.mark.parametrize("name", CASES)
def test_cli_golden(name):
    assert _compute(name) == _load_goldens()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python tests/test_cli_goldens.py --capture")
    payload = {"format": FORMAT, "cases": _collect()}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['cases'])} cases to {GOLDEN_PATH}")
