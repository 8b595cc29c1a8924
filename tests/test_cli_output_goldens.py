"""CLI output goldens: what the report subcommands print and write.

``tests/data/cli_output_goldens.json`` pins, byte for byte:

* ``stdout/<case>``: the exit code and stdout of every sweep case of
  :data:`tests.test_cli_goldens.SWEEP_ARGVS` (the figure commands
  that sweep, and ``faults``, ``flows``, ``metrics`` and ``explore
  --verify`` for brake and fusion);
* ``files/<case>``: the exit code, stdout and written documents of
  ``faults --out`` (with its snapshot fault triage), ``flows --out``,
  ``metrics --metrics-out``, ``explore --shrink --record
  --schedule-out`` and ``explore --replay`` of that record.

The CLI runs in-process, single-worker and without the result store;
stderr (the sweep summary's wall time) is dropped, output paths are
normalized and a decision record is pinned as its digest.  The written
documents are pinned whole: they carry no host timings, and
:func:`test_artifacts_are_byte_identical_across_hash_seeds` checks that
two runs write the same bytes.

To refresh after an *intentional* change, run
``PYTHONPATH=src python -m tests.test_cli_output_goldens --capture`` and
explain the change in the commit message.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

import pytest

from repro.cli import main
from tests.test_cli_goldens import SWEEP_ARGVS

GOLDEN_PATH = Path(__file__).parent / "data" / "cli_output_goldens.json"
FORMAT = "cli-output-goldens/v1"

#: Flags every case appends: in-process and store-free.
_ISOLATED = ["--workers", "1", "--no-cache"]

#: Each file case: its argvs, run in order in one directory, where
#: ``{X}`` names output file ``X``, and how each file is pinned.
FILE_CASES: dict[str, tuple[list[list[str]], dict[str, str]]] = {
    "faults-out": (
        [["faults", "--seeds", "2", "--frames", "40", "--out", "{R}"]],
        {"R": "json"},
    ),
    "flows-out-fusion": (
        [["flows", "--app", "fusion", "--seeds", "1", "--out", "{R}"]],
        {"R": "json"},
    ),
    "metrics-out-fusion": (
        [["metrics", "det", "--app", "fusion", "--seeds", "1",
          "--metrics-out", "{A}"]],
        {"A": "json"},
    ),
    "explore-record-replay": (
        [
            ["explore", "--budget", "8", "--frames", "30", "--shrink",
             "--record", "{D}", "--schedule-out", "{S}", "--no-snapshot"],
            ["explore", "--replay", "{D}"],
        ],
        {"D": "digest", "S": "json"},
    ),
}


def _run(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, *_ISOLATED])
    return code, stdout.getvalue()


def _digest(document: dict) -> dict[str, Any]:
    canonical = json.dumps(document, sort_keys=True).encode()
    return {
        "records": len(document["records"]),
        "sha256": hashlib.sha256(canonical).hexdigest(),
    }


def _file_case(name: str) -> dict[str, Any]:
    argvs, outputs = FILE_CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: str(Path(tmp) / f"{key}.json") for key in outputs}
        runs = []
        for argv in argvs:
            code, stdout = _run([arg.format(**paths) for arg in argv])
            runs.append({"exit": code, "stdout": stdout.replace(tmp, "<tmp>")})
        files = {}
        for key, kind in outputs.items():
            document = json.loads(Path(paths[key]).read_text())
            files[key] = _digest(document) if kind == "digest" else document
    return {"runs": runs, "files": files}


def _compute(name: str) -> Any:
    kind, _, key = name.partition("/")
    if kind == "stdout":
        code, stdout = _run(SWEEP_ARGVS[key])
        return {"exit": code, "stdout": stdout}
    return _file_case(key)


CASES = sorted(
    [f"stdout/{name}" for name in SWEEP_ARGVS]
    + [f"files/{name}" for name in FILE_CASES]
)


def _load_goldens() -> dict[str, Any]:
    with GOLDEN_PATH.open() as fh:
        data = json.load(fh)
    assert data["format"] == FORMAT
    return data["cases"]


def test_every_case_has_a_golden():
    assert sorted(_load_goldens()) == CASES


@pytest.mark.parametrize("name", CASES)
def test_cli_output_golden(name):
    assert _compute(name) == _load_goldens()[name]


#: Artifact-writing commands whose documents must be a function of their
#: inputs alone; ``{out}`` is the written file.
_REPRODUCIBLE_ARGVS = {
    "faults-out": ["faults", "--seeds", "2", "--frames", "40", "--out", "{out}"],
    "explore-schedule-out": [
        "explore", "--budget", "4", "--frames", "30", "--shrink",
        "--schedule-out", "{out}",
    ],
    "flows-out": ["flows", "--app", "fusion", "--seeds", "1", "--out", "{out}"],
    "metrics-out": [
        "metrics", "det", "--app", "fusion", "--seeds", "1", "--metrics-out", "{out}"
    ],
}


@pytest.mark.parametrize("name", sorted(_REPRODUCIBLE_ARGVS))
def test_artifacts_are_byte_identical_across_hash_seeds(name, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    written = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"{name}-{hash_seed}.json"
        argv = [arg.format(out=out) for arg in _REPRODUCIBLE_ARGVS[name]]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        subprocess.run(
            [sys.executable, "-m", "repro", *argv, *_ISOLATED],
            env=env, cwd=tmp_path, capture_output=True, check=True, timeout=300,
        )
        written.append(out.read_bytes())
    assert written[0] == written[1]


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python -m tests.test_cli_output_goldens --capture")
    payload = {"format": FORMAT, "cases": {name: _compute(name) for name in CASES}}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['cases'])} cases to {GOLDEN_PATH}")
