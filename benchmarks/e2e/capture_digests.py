"""Regenerate the e2e benchmark's committed outcome digests.

Usage::

    PYTHONPATH=src python benchmarks/e2e/capture_digests.py

Rewrites ``benchmarks/e2e/expected_digests.json``: the
``outcome_digest()`` of every seed-run the benchmark makes at
``--seed 0`` (set-up runs, timed rounds and the traced pass), per
workload.  Only do this after an *intentional* change to what a run
computes, or to the workloads themselves; a speed-only change must
reproduce these digests bit-exactly, which is what makes
``failed_frac`` meaningful.  Explain the change in the commit that
refreshes them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    SETUP_FRAMES,
    WORKLOADS,
    check_result,
    make_spec,
    run_key,
    sim_seeds,
)

DIGEST_PATH = HERE / "expected_digests.json"
SEED = 0


def planned_runs(workload):
    """Every ``(app, variant, frames, sim_seed)`` the workload can run."""
    runs = set()
    for app, variant in workload.combos:
        runs.add((app, variant, SETUP_FRAMES, sim_seeds(SEED, 1)[0]))
        for s in sim_seeds(SEED, workload.seeds):
            runs.add((app, variant, workload.frames, s))
        for s in sim_seeds(SEED, workload.trace_seeds):
            runs.add((app, variant, workload.trace_frames, s))
    return sorted(runs, key=repr)


def main() -> None:
    document: dict = {"format": "e2e-digests/v1", "seed": SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        digests = {}
        for app, variant, frames, seed in planned_runs(workload):
            spec = make_spec(app, variant, frames, (seed,))
            result = spec.run_one(seed)
            problem = check_result(app, variant, result)
            if problem:
                raise SystemExit(f"{name} {app}/{variant} seed {seed}: {problem}")
            key = run_key(app, variant, spec.scenario.n_frames, seed)
            digests[key] = result.outcome_digest()
        document["workloads"][name] = dict(sorted(digests.items()))
        print(f"{name}: {len(digests)} runs")
    DIGEST_PATH.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {DIGEST_PATH}")


if __name__ == "__main__":
    main()
