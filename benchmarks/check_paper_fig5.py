"""Paper-scale Figure 5 check: 20 stock seeds at 100 000 frames each.

``paper_scale_fig5.json`` at the repository root holds, per seed, the
four error counts of the stock brake assistant at paper scale (20 runs
of 100 000 frames).  This script re-runs all 20 seeds through
:func:`repro.harness.figures.figure5` on a fresh
:class:`~repro.harness.sweep.SweepRunner` (no result store) and
compares each seed's counts with its committed row.  It prints one line
per seed and a JSON summary (wall time, workers, host), and exits 1 on
any mismatch.

It is opt-in and slow (about a minute or more per seed on one core),
so it is named to stay out of pytest's collection::

    PYTHONPATH=src python benchmarks/check_paper_fig5.py [--workers N]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.harness.figures import figure5
from repro.harness.sweep import SweepRunner, default_workers

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "paper_scale_fig5.json"
FRAMES = 100_000


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sweep worker processes (default: the sweep engine's default)",
    )
    args = parser.parse_args(argv)
    rows = json.loads(GOLDEN_PATH.read_text())["rows"]
    workers = args.workers or default_workers()
    started = time.perf_counter()
    result = figure5(
        n_runs=len(rows),
        n_frames=FRAMES,
        sweep=SweepRunner(workers=workers, use_cache=False),
    )
    wall_s = time.perf_counter() - started
    mismatches = []
    for row, run in zip(rows, result.runs):
        errors = run.errors.as_dict()
        ok = run.seed == row["seed"] and errors == row["errors"]
        print(f"seed {row['seed']:2d}: {'ok' if ok else 'MISMATCH'} {errors}")
        if not ok:
            mismatches.append(row["seed"])
    if len(result.runs) != len(rows):
        mismatches.append("run count")
    print(json.dumps({
        "seeds": len(rows),
        "frames": FRAMES,
        "mismatches": mismatches,
        "wall_s": round(wall_s, 1),
        "workers": workers,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
