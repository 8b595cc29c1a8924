"""``repro library`` goldens: the app listing, as text and as JSON.

The listing reads each app's native topology and whether it ships a
default fault plan from the registry, so a change to how apps declare
their worlds that moves a node, a switch or a fault shows up here.
``tests/data/library_goldens.json`` holds the stdout of ``repro
library`` and ``repro library --json``.  To refresh after an
*intentional* change, run
``PYTHONPATH=src python tests/test_cli_library.py --capture`` and
explain the change in the commit message.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_PATH = Path(__file__).parent / "data" / "library_goldens.json"
FORMAT = "library-goldens/v1"

CASES = {"text": ["library"], "json": ["library", "--json"]}


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _load_goldens() -> dict[str, str]:
    with GOLDEN_PATH.open() as fh:
        data = json.load(fh)
    assert data["format"] == FORMAT
    return data["cases"]


def test_every_case_has_a_golden():
    assert sorted(_load_goldens()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_library_listing(name):
    assert _stdout(CASES[name]) == _load_goldens()[name]


def test_json_listing_names_every_registered_app():
    from repro import apps

    listing = json.loads(_load_goldens()["json"])
    assert [entry["name"] for entry in listing["apps"]] == list(apps.names())


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python tests/test_cli_library.py --capture")
    payload = {
        "format": FORMAT,
        "cases": {name: _stdout(argv) for name, argv in sorted(CASES.items())},
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['cases'])} cases to {GOLDEN_PATH}")
