"""Inventory of host-nondeterminism sources under ``src/repro``.

Simulated runs must not depend on anything the host varies between
processes: wall-clock time, OS entropy, object addresses or the string
hash seed.  This test walks the AST of every module and counts, per
file, each import of ``random``, ``time`` and ``uuid`` and each use of
``os.urandom``, ``id()`` and ``hash()``.  The counts must equal
:data:`ALLOWLIST`, whose entries say why the use cannot reach a
schedule, a trace or an outcome digest.

A new use fails the test until it is added here with its reason; a use
that disappears fails it too, so the inventory stays exact.  The scan
sees direct uses only: ``getattr`` or ``importlib`` tricks are not
followed.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules whose import is a nondeterminism source.
MODULES = ("random", "time", "uuid")

#: (file under src/repro, kind) -> (count, why it is safe).
ALLOWLIST: dict[tuple[str, str], tuple[int, str]] = {
    ("cli.py", "import time"): (
        1,
        "wall time for 'done in' lines and the serve/worker/top loops",
    ),
    ("explore/strategies.py", "import random"): (
        1,
        "random.Random instances seeded from the strategy seed",
    ),
    ("faults/shrink.py", "id()"): (
        2,
        "membership of records within one shrink step; never stored",
    ),
    ("harness/sweep.py", "import time"): (
        1,
        "perf_counter for elapsed_s, kept out of outcome digests",
    ),
    ("network/latency.py", "import random"): (
        1,
        "type of the seeded per-stream Random passed to sample()",
    ),
    ("obs/context.py", "import time"): (
        1,
        "perf_counter_ns for host-time spans of the observer",
    ),
    ("obs/flows.py", "id()"): (
        5,
        "in-flight frame/event correlation maps; ids never leave the process",
    ),
    ("service/coordinator.py", "import time"): (
        1,
        "monotonic clock for lease deadlines of the sweep service",
    ),
    ("service/http.py", "import time"): (
        1,
        "request timestamps and client polling deadlines",
    ),
    ("service/worker.py", "import time"): (
        1,
        "per-seed wall time and the idle-exit timeout",
    ),
    ("sim/rng.py", "import random"): (
        1,
        "Random streams seeded from the world seed and stream name",
    ),
    ("sim/scheduler.py", "import random"): (
        1,
        "type of the seeded decision-source Random",
    ),
    ("sim/scheduler.py", "id()"): (
        8,
        "observer scratch keys for mutex hold/wait spans",
    ),
    ("snapshot/engine.py", "import time"): (
        1,
        "fork and replay timing statistics",
    ),
}


def scan(source: str) -> Counter[str]:
    """Count the nondeterminism sources in one module's *source*."""
    found: Counter[str] = Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top in MODULES:
                    found[f"import {top}"] += 1
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            top = node.module.split(".")[0]
            if top in MODULES:
                found[f"import {top}"] += 1
            elif top == "os" and any(alias.name == "urandom" for alias in node.names):
                found["os.urandom"] += 1
        elif isinstance(node, ast.Attribute) and node.attr == "urandom":
            found["os.urandom"] += 1
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("id", "hash")
        ):
            found[f"{node.func.id}()"] += 1
    return found


def inventory() -> dict[tuple[str, str], int]:
    """Every source under ``src/repro``, keyed by (relative file, kind)."""
    counts: dict[tuple[str, str], int] = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for kind, count in scan(path.read_text()).items():
            counts[(relative, kind)] = count
    return counts


def test_every_source_is_allowlisted():
    found = inventory()
    allowed = {key: count for key, (count, _why) in ALLOWLIST.items()}
    new = {key: n for key, n in found.items() if allowed.get(key) != n}
    stale = {key: n for key, n in allowed.items() if found.get(key) != n}
    assert not new, f"not in the inventory (add with a reason): {new}"
    assert not stale, f"inventory entries no longer match the code: {stale}"


def test_every_entry_has_a_reason():
    for key, (count, why) in ALLOWLIST.items():
        assert count > 0 and why.strip(), key


def test_scan_sees_every_kind():
    source = "\n".join(
        [
            "import random",
            "import time as clock",
            "import uuid",
            "from random import Random",
            "from time import perf_counter",
            "from os import urandom",
            "import os",
            "os.urandom(8)",
            "id(object())",
            "hash('x')",
            "from repro.time import MS",
            "from .time import Tag",
        ]
    )
    assert scan(source) == {
        "import random": 2,
        "import time": 2,
        "import uuid": 1,
        "os.urandom": 2,
        "id()": 1,
        "hash()": 1,
    }
