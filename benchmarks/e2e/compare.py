"""Compare two e2e benchmark results, one row per workload and metric.

Usage::

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

Each file is either an ``e2e-runs/v1`` document (``collect.py``,
``baseline.json``; the samples are the per-run values of every set) or
a ``result.json`` of ``run.py --out`` (the samples are its per-rep
values).  Each row shows both sides' median and quartiles, the ratio
change/parent, and a verdict, with direction and bound taken from
``BENCHMARK.json``:

* ``unresolved``: either side's spread (quartile distance over median)
  exceeds the bound, and neither side beats every sample of the other;
* ``regressed``: the change's median is worse than the parent's by
  more than the bound;
* ``improved``: the change wins at least nine tenths of the pairs
  (sample *i* against sample *i*) and the medians differ by more than
  the parent's own spread;
* ``unchanged``: otherwise.

Exits 1 if any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def samples(path: Path) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [samples]}}`` from either document format."""
    data = json.loads(path.read_text())
    out: dict[str, dict[str, list[float]]] = {}
    if data.get("format") == "e2e-runs/v1":
        for run_set in data["sets"]:
            for workload, metrics in run_set["workloads"].items():
                for name, values in metrics.items():
                    out.setdefault(workload, {}).setdefault(name, []).extend(values)
    elif data.get("format") == "e2e-bench/v1":
        for workload, entry in data["workloads"].items():
            for name, metric in entry.get("metrics", {}).items():
                out.setdefault(workload, {})[name] = list(metric["per_rep"])
    else:
        raise SystemExit(f"{path}: not an e2e-runs/v1 or e2e-bench/v1 document")
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    def is_better(a: float, b: float) -> bool:
        return a > b if better == "higher" else a < b

    p_q1, p_med, p_q3 = summary(parent)
    c_q1, c_med, c_q3 = summary(change)
    p_spread = (p_q3 - p_q1) / p_med
    c_spread = (c_q3 - c_q1) / c_med
    all_better = all(is_better(c, p) for c in change for p in parent)
    all_worse = all(is_better(p, c) for c in change for p in parent)
    if max(p_spread, c_spread) > bound and not (all_better or all_worse):
        return "unresolved"
    worse_by = (c_med - p_med) / p_med
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if is_better(c, p))
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > p_spread:
        return "improved"
    return "unchanged"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = samples(args.parent), samples(args.change)
    print(
        f"{'workload':12s} {'metric':13s} {'parent median [q1, q3]':>32s} "
        f"{'change median [q1, q3]':>32s} {'change/parent':>13s}  verdict"
    )
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        for spec in specs:
            name = spec["name"]
            p, c = parent[workload].get(name), change[workload].get(name)
            if not p or not c:
                continue
            p_q1, p_med, p_q3 = summary(p)
            c_q1, c_med, c_q3 = summary(c)
            result = verdict(p, c, spec["better"], spec["bound"])
            regressed |= result == "regressed"
            print(
                f"{workload:12s} {name:13s} "
                f"{p_med:12.5g} [{p_q1:8.5g}, {p_q3:8.5g}] "
                f"{c_med:12.5g} [{c_q1:8.5g}, {c_q3:8.5g}] "
                f"{c_med / p_med:13.4f}  {result} "
                f"({spec['better']} is better, bound {spec['bound']:.0%}, "
                f"n={len(p)}/{len(c)})"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
