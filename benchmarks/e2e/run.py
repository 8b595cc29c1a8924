"""End-to-end benchmark: simulated frames per host-second on four workloads.

One run of one workload (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload brake-stock --seed 3
        --seconds 20 --trace 0 [--out DIR]

``--trace 0`` runs ``REPS`` fresh interpreters one after another, each
set up and then timed for ``seconds / REPS``, and prints the end-to-end
metrics; ``--trace 1`` runs the layer-boundary traced pass and prints
the per-layer metrics.  The full command, every workload with tracing
off (reps round-robin across workloads) and then one traced pass each::

    python3 benchmarks/e2e/run.py --seed 0 --out DIR

writes ``DIR/result.json``, ``DIR/layers-<workload>.json`` and a
Perfetto ``DIR/trace-<workload>.json``.  Every output is checked (see
README.md); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2
without that line when a child process cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from workloads import REPS, WARM, WORK_DIR, WORKLOADS  # noqa: E402

#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150
#: Per-layer metrics only the sweep workload produces (0 elsewhere: the
#: inline workloads bypass the harness).
HARNESS_METRICS = (
    "sweep_overhead_frac",
    "store_bytes_per_seed",
    "cache_hit_ratio",
    "resubmit_seeds_per_s",
)
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


class ChildFailed(RuntimeError):
    """A child interpreter crashed or timed out (no result at all)."""


def child_env(rep: int) -> dict[str, str]:
    """The child's environment: no REPRO_* knobs, a fixed hash seed per rep.

    Each rep runs under a different hash seed, so equal digests across
    reps show that outcomes do not depend on it; fixing the seed per
    rep keeps that source of variation identical from run to run.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(rep + 1)
    return env


def run_child(
    workload: str,
    seed: int,
    mode: str,
    rep: int,
    budget: float = 0.0,
    trace_out: Path | None = None,
) -> dict:
    """Run one child interpreter to completion; returns its JSON result."""
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--rep", str(rep),
        "--budget", repr(budget),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(rep),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{workload} {mode} child timed out") from None
    finally:
        # Reap anything the child left behind (e.g. pool workers).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode} child exited {proc.returncode}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------


def load_expected(seed: int) -> dict[str, dict[str, str]] | None:
    """Committed digests for *seed*, or ``None`` when none were captured."""
    data = json.loads((HERE / "expected_digests.json").read_text())
    return data["workloads"] if data["seed"] == seed else None


def count_failures(records: list[dict], expected: dict[str, str] | None) -> list[str]:
    """One line per failed record.

    A record fails when it raised or failed a check in the child, when
    its digest differs from the committed one (``expected``, if given)
    or, without committed digests, from the first record of its key.
    Records of one key come from different reps, hash seeds and passes
    (untraced, traced, counted), so this also checks that the tracer and
    the counters do not perturb the run.
    """
    failures = []
    reference: dict[str, str] = {}
    for r in records:
        key = r["key"]
        if r["problem"]:
            failures.append(f"{key}: {r['problem']}")
            continue
        if key == WARM:
            continue
        if expected is not None:
            want = expected.get(key)
            if want is None:
                failures.append(f"{key}: no committed digest (run capture_digests.py)")
                continue
        else:
            want = reference.setdefault(key, r["digest"])
        if r["digest"] != want:
            failures.append(f"{key}: digest {r['digest'][:12]} != {want[:12]}")
    return failures


def check_names(printed, declared, what: str) -> list[str]:
    """*printed* names must be exactly BENCHMARK.json's *declared*, well-formed."""
    printed, declared = set(printed), set(declared)
    problems = [f"bad {what} name {n!r}" for n in printed if not NAME_RE.fullmatch(n)]
    if printed != declared:
        problems.append(
            f"{what} names differ from BENCHMARK.json: extra "
            f"{sorted(printed - declared)}, missing {sorted(declared - printed)}"
        )
    return problems


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(workload: str, reps: list[dict]) -> dict[str, dict]:
    """The end-to-end metrics of one workload from its timed reps.

    Timings are normalized to the nominal host speed: a round's rate is
    multiplied, and its seed-run times divided, by the host slowdown
    sampled around it (``workloads.HostSpeed``), and a rep's set-up time
    is divided by the slowdown sampled right after it.  The shared host's
    speed swings by ±10% and more over minutes; the ratio tracks the
    program's own cost.  Round rates and seed-run times are pooled
    across reps, so the tail percentile has enough samples beyond it.
    Each metric carries its per-rep values and a note with the raw value.
    """
    tail_pct = WORKLOADS[workload].tail_pct

    def summarize(reps: list[dict], normalize: bool = True) -> dict[str, float]:
        def scale(x: dict, key: str = "slowdown") -> float:
            return x[key] if normalize else 1.0

        rounds = [rd for rep in reps for rd in rep["rounds"]]
        times = [ms / scale(rd) for rd in rounds for ms in rd["ms"]]
        setups = [rep["setup_s"] / scale(rep, "setup_slowdown") for rep in reps]
        return {
            "frames_per_s": statistics.median(rd["rate"] * scale(rd) for rd in rounds),
            "run_ms_p50": statistics.median(times),
            "run_ms_tail": percentile(times, tail_pct),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reps),
        }

    values = summarize(reps)
    raw = summarize(reps, normalize=False)
    per_rep = [summarize([rep]) for rep in reps]
    rounds = [rd for rep in reps for rd in rep["rounds"]]
    n_runs = sum(len(rd["ms"]) for rd in rounds)
    slowdown = statistics.median(rd["slowdown"] for rd in rounds)
    notes = {
        "frames_per_s": f"median of {len(rounds)} rounds",
        "run_ms_p50": f"n={n_runs}",
        "run_ms_tail": f"p{tail_pct}, n={n_runs}, "
        f"{n_runs * (100 - tail_pct) // 100} beyond",
        "setup_s": f"median of {len(reps)} reps",
    }
    for name in notes:
        notes[name] += f"; raw {raw[name]:.6g} at host slowdown {slowdown:.3f}"
    notes["peak_rss_mb"] = f"max of {len(reps)} reps"
    return {
        name: {
            "value": value,
            "raw": raw[name],
            "per_rep": [r[name] for r in per_rep],
            "note": notes[name],
        }
        for name, value in values.items()
    }


def harness_metrics(reps: list[dict]) -> dict[str, float]:
    """Median of each harness measurement over the sweep rounds (0: no sweep)."""
    rounds = [h for rep in reps for h in rep["harness"]]
    return {
        f"harness.{name}": statistics.median(h[name] for h in rounds) if rounds else 0.0
        for name in HARNESS_METRICS
    }


# ---------------------------------------------------------------------------
# Driving.
# ---------------------------------------------------------------------------


def timed_reps(workloads: list[str], seed: int, seconds: float) -> dict[str, list]:
    """``REPS`` fresh interpreters per workload, round-robin across workloads."""
    reps: dict[str, list[dict]] = {w: [] for w in workloads}
    for rep in range(REPS):
        for w in workloads:
            reps[w].append(run_child(w, seed, "rep", rep, seconds / REPS))
    return reps


def traced(workload: str, seed: int, seconds: float, trace_out: Path | None):
    """Per-layer metrics: harness figures from one timed rep, then the traced pass."""
    reps = []
    if WORKLOADS[workload].sweep:
        reps.append(run_child(workload, seed, "rep", 0, seconds / REPS))
    layer = run_child(workload, seed, "trace", 0, trace_out=trace_out)
    metrics = {**layer["metrics"], **harness_metrics(reps)}
    return metrics, layer, reps


@dataclass
class Report:
    """What one invocation prints and writes."""

    seed: int
    seconds: float
    full: bool
    units: dict[str, str]
    expected: dict | None
    rows: list[tuple] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    printed: dict[str, dict] = field(default_factory=dict)
    workloads: dict[str, dict] = field(default_factory=dict)

    def check(self, workload: str, records: list[dict]) -> list[str]:
        want = None if self.expected is None else self.expected.get(workload, {})
        fails = count_failures(records, want)
        self.attempted += len(records)
        self.failures += fails
        return fails

    def add(self, workload: str, name: str, value: float, note: str = "",
            print_it: bool = True) -> None:
        unit = self.units.get(name, "?")
        self.rows.append((workload, name, value, unit, note))
        if print_it:
            key = f"{workload}.{name}" if self.full else name
            self.printed[key] = {"value": value, "unit": unit}

    def document(self) -> dict:
        return {
            "format": "e2e-bench/v1",
            "seed": self.seed,
            "seconds": self.seconds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "workloads": self.workloads,
        }

    def emit(self) -> None:
        for workload, name, value, unit, note in self.rows:
            print(f"{workload:12s} {name:32s} {value:14.6g} {unit:9s} {note}")
        for line in self.problems + self.failures:
            print(f"FAILED {line}", file=sys.stderr)
        print(json.dumps({
            "correct": not self.problems and not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": self.printed,
        }))


def report_timed(report: Report, workloads: list[str], declared) -> None:
    for w, reps in timed_reps(workloads, report.seed, report.seconds).items():
        records = [r for rep in reps for r in rep["setup_records"] + rep["records"]]
        fails = report.check(w, records)
        metrics = end_to_end(w, reps)
        report.problems += check_names(metrics, declared, "end-to-end metric")
        entry = report.workloads.setdefault(w, {})
        entry.update(attempted=len(records), failed=len(fails),
                     failed_frac=len(fails) / len(records), metrics={})
        for name, m in metrics.items():
            q1, q3 = quartiles(m["per_rep"])
            entry["metrics"][name] = {
                "value": m["value"], "unit": report.units.get(name, "?"),
                "raw": m["raw"], "rep_q1": q1, "rep_q3": q3,
                "per_rep": m["per_rep"], "note": m["note"],
            }
            report.add(w, name, m["value"], m["note"])
        report.add(w, "failed_frac", len(fails) / len(records),
                   f"{len(fails)}/{len(records)} runs", print_it=False)


def report_traced(report: Report, workloads: list[str], declared, out: Path | None):
    for w in workloads:
        trace_out = out / f"trace-{w}.json" if out else None
        metrics, layer, reps = traced(w, report.seed, report.seconds, trace_out)
        report.check(w, layer["records"] + [r for rep in reps for r in rep["records"]])
        report.problems += layer["problems"]
        report.problems += check_names(metrics, declared, "per-layer metric")
        report.workloads.setdefault(w, {})["layers"] = metrics
        if out:
            (out / f"layers-{w}.json").write_text(json.dumps({
                "workload": w,
                "frames": layer["frames"],
                "spans": layer["spans"],
                "untraced_wall_s": layer["plain_wall_s"],
                "traced_wall_s": layer["traced_wall_s"],
                "metrics": metrics,
            }, indent=2))
        for name, value in metrics.items():
            report.add(w, name, value, print_it=not report.full)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: the full command, all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer metrics")
    parser.add_argument("--out", type=Path, help="directory for result files")
    args = parser.parse_args()
    # A terminated run still reaps its children (run_child's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end_names = [m["name"] for m in bench["end_to_end"]]
    layer_names = [m["name"] for m in bench["per_layer"]]
    report = Report(
        seed=args.seed,
        seconds=args.seconds or bench["run_seconds"],
        full=args.workload is None,
        units={m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]},
        expected=load_expected(args.seed),
    )
    report.units["failed_frac"] = "fraction"
    report.problems += check_names(
        WORKLOADS, [w["name"] for w in bench["workloads"]], "workload"
    )
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    try:
        if report.full or args.trace == 0:
            report_timed(report, workloads, end_to_end_names)
        if report.full or args.trace == 1:
            report_traced(report, workloads, layer_names, args.out)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    if args.out is not None:
        (args.out / "result.json").write_text(json.dumps(report.document(), indent=2))
    report.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
