"""Run the e2e benchmark several times per workload and keep every value.

Usage::

    python3 benchmarks/e2e/collect.py --seeds 1-10 --out runs.json

Runs ``run.py --workload W --seed S --trace 0`` once per workload and
seed (one process at a time, workloads in turn for each seed) and writes
an ``e2e-runs/v1`` document: per workload and end-to-end metric, the
list of values in seed order.  ``baseline.json`` holds two such sets;
``compare.py`` compares two documents.  Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def collect(seeds: list[int]) -> tuple[dict, bool]:
    """One set: ``{workload: {metric: [value per seed]}}`` and whether all passed."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, dict[str, list[float]]] = {}
    ok = True
    for seed in seeds:
        for workload in (w["name"] for w in bench["workloads"]):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED", file=sys.stderr)
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    metric["value"]
                )
            print(f"{workload} seed {seed}: ok", file=sys.stderr)
    return {"seeds": seeds, "workloads": values}, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    run_set, ok = collect(parse_seeds(args.seeds))
    document = {
        "format": "e2e-runs/v1",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "run_seconds": json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
        "sets": [run_set],
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
