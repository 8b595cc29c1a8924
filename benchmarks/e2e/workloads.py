"""The e2e benchmark's workloads and the child process that runs them.

``run.py`` starts one fresh interpreter per rep and runs it to
completion before starting the next (a closed loop with one client)::

    python3 benchmarks/e2e/workloads.py --workload W --seed N --mode rep
        --rep K --budget SECONDS --spawned MONOTONIC [--trace-out F]

The child prints one JSON object as the last line of its standard
output.  Its load is entirely derived from ``--seed``: simulation seeds
are ``1000 * seed + i``.  Rep *k* of an inline workload starts its
cycle over those seeds *k / REPS* of the way round, so one run covers
every seed while neighbouring reps share most of theirs.  Outcome
digests are therefore comparable across reps, passes and commits.  Only
public entry points of ``repro`` are called: ``ScenarioSpec.run_one``,
``SweepRunner.run_spec`` and the app registry.
"""

from __future__ import annotations

import argparse
import heapq
import json
import multiprocessing
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Scratch space for the sweep workload's result stores (git-ignored).
WORK_DIR = HERE / ".work"

#: Fresh interpreters per workload and run.  Host speed drifts by several
#: percent over seconds, so medians are taken over all of them; each also
#: runs under its own hash seed for the digest checks.
REPS = 5
#: Warm resubmissions after each cold sweep pass.
WARM_PASSES = 10
#: Frames of the set-up run of each app/variant.
SETUP_FRAMES = 10
#: Spans written to a Perfetto trace file (the rest are only counted).
TRACE_FILE_SPANS = 100_000
#: Key of a warm-resubmission record (warm outcomes are checked, not timed).
WARM = "warm"
#: Calls of :func:`reference_work` per host-speed sample (about 20 ms).
REFERENCE_CALLS = 3
#: Median of :func:`reference_s` on the VM the benchmark was built on
#: (2-vCPU 2.1 GHz Xeon, CPython 3.11): the host speed timings are
#: normalized to.
REFERENCE_NOMINAL_S = 0.021


@dataclass(frozen=True)
class Workload:
    """One set of inputs; BENCHMARK.json and README.md say why each was chosen."""

    name: str
    #: (app, variant) pairs each round runs.
    combos: tuple[tuple[str, str], ...]
    #: Frames per seed-run; ``None`` keeps each app's default.
    frames: int | None
    #: Inline: seeds cycled one per round.  Sweep: seeds per variant per round.
    #: Per-seed cost differs by up to ±10%, so a run averages over many.
    seeds: int
    #: Percentile reported as ``run_ms_tail``: the highest of 99/90/75
    #: that leaves at least ten seed-runs beyond it at this workload's
    #: rate over one run of the benchmark.
    tail_pct: int
    #: Frames per seed-run of the traced pass (``None``: app default).
    trace_frames: int | None
    #: Seeds per (app, variant) in the traced pass.
    trace_seeds: int = 1
    #: Whether rounds go through ``SweepRunner.run_spec``.
    sweep: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="brake-stock",
            combos=(("brake", "nondet"),),
            frames=1000,
            seeds=20,
            tail_pct=75,
            trace_frames=500,
        ),
        Workload(
            name="brake-dear",
            combos=(("brake", "det"),),
            frames=500,
            seeds=20,
            tail_pct=75,
            trace_frames=300,
        ),
        Workload(
            name="library",
            combos=tuple(
                (app, variant)
                for app in ("fusion", "mixedcrit", "failover")
                for variant in ("det", "nondet")
            ),
            frames=None,
            seeds=20,
            tail_pct=90,
            trace_frames=None,
        ),
        Workload(
            name="sweep-short",
            combos=(("brake", "nondet"), ("brake", "det")),
            frames=20,
            seeds=50,
            tail_pct=99,
            trace_frames=20,
            trace_seeds=50,
            sweep=True,
        ),
    )
}


class _Event:
    __slots__ = ("time", "seq", "value")

    def __init__(self, time: int, seq: int, value: int) -> None:
        self.time = time
        self.seq = seq
        self.value = value

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def reference_work(events: int = 3000) -> int:
    """Fixed pure-Python work shaped like the simulator's hot loop.

    A heap of events, generator resumes, dict updates and small
    allocations.  It imports nothing from ``repro``, so no change to the
    program moves its cost: timing it tells how fast the host runs
    Python at that moment.
    """

    def consumer(index: int):
        total = 0
        while True:
            total = (total * 31 + (yield) + index) % 1_000_003

    consumers = [consumer(i) for i in range(16)]
    for c in consumers:
        next(c)
    heap: list[_Event] = []
    counts: dict[int, int] = {}
    x = 12345
    for seq in range(events):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, _Event(x % 10_000, seq, x))
        if len(heap) > 64:
            event = heapq.heappop(heap)
            consumers[event.seq % 16].send(event.value)
            key = event.seq % 97
            counts[key] = counts.get(key, 0) + len(str(event.value))
    return sum(counts.values())


def reference_s() -> float:
    """Host seconds for ``REFERENCE_CALLS`` calls of :func:`reference_work`."""
    started = time.perf_counter()
    for _ in range(REFERENCE_CALLS):
        reference_work()
    return time.perf_counter() - started


def _reference_server(conn) -> None:
    while conn.recv():
        conn.send(reference_s())


class HostSpeed:
    """How much slower than nominal the host runs :func:`reference_work` now.

    ``sample()`` runs the reference in this process or, with *workers* > 1,
    on that many spawned processes at once (the condition a sweep's pool
    workers compute under), and returns the mean time over
    ``REFERENCE_NOMINAL_S``.  The helpers are plain processes behind
    pipes, so this process gains no threads before the sweep pool forks
    it.
    """

    def __init__(self, workers: int) -> None:
        context = multiprocessing.get_context("spawn")
        self._conns = []
        self._procs = []
        for _ in range(workers if workers > 1 else 0):
            conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_reference_server, args=(child_conn,), daemon=True
            )
            proc.start()
            child_conn.close()
            self._conns.append(conn)
            self._procs.append(proc)

    def sample(self) -> float:
        if not self._conns:
            return reference_s() / REFERENCE_NOMINAL_S
        for conn in self._conns:
            conn.send(True)
        return statistics.fmean(conn.recv() for conn in self._conns) / (
            REFERENCE_NOMINAL_S
        )

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc_info) -> None:
        for conn in self._conns:
            conn.send(False)
            conn.close()
        for proc in self._procs:
            proc.join(timeout=30)


def sim_seeds(seed: int, count: int) -> list[int]:
    return [1000 * seed + i for i in range(count)]


def run_key(app: str, variant: str, frames: int, seed: int) -> str:
    """Identity of one seed-run; the key of ``expected_digests.json``."""
    return f"{app}/{variant}/{frames}f/{seed}"


def make_spec(app: str, variant: str, frames: int | None, seeds, observe=False):
    from repro.apps import registry
    from repro.harness import ScenarioSpec

    scenario = registry.get(app).default_scenario()
    if frames is not None:
        scenario = replace(scenario, n_frames=frames)
    return ScenarioSpec(
        app=app,
        variant=variant,
        seeds=tuple(seeds),
        scenario=scenario,
        observe=observe,
    )


def check_result(app: str, variant: str, result) -> str:
    """Why *result* is wrong, or ``""``.

    DEAR brake runs must be error-free, with no deadline misses and no
    STP violations (§IV.B).
    """
    if app == "brake" and variant == "det":
        if result.errors.total() or result.deadline_misses or result.stp_violations:
            return (
                f"DEAR brake run not clean: errors={result.errors.as_dict()} "
                f"deadline_misses={result.deadline_misses} "
                f"stp_violations={result.stp_violations}"
            )
    return ""


def record(spec, seed: int, result, ms: float, problem: str = "") -> dict:
    """One seed-run as the child reports it."""
    rec = {
        "key": run_key(spec.app, spec.variant, spec.scenario.n_frames, seed),
        "ms": ms,
        "frames": spec.scenario.n_frames,
        "digest": "",
        "problem": problem,
    }
    if result is not None:
        rec["digest"] = result.outcome_digest()
        rec["problem"] = problem or check_result(spec.app, spec.variant, result)
        if spec.observe:
            rec["counters"] = result.fault_summary["metrics"]["counters"]
    return rec


def run_inline(spec, seed: int) -> dict:
    started = time.perf_counter()
    try:
        result = spec.run_one(seed)
    except Exception as exc:  # a failed run is counted, not fatal
        return record(spec, seed, None, 0.0, f"raised {type(exc).__name__}: {exc}")
    return record(spec, seed, result, (time.perf_counter() - started) * 1e3)


def sweep_records(spec, cold, warms) -> list[dict]:
    """Records of a cold sweep pass and its warm resubmissions."""
    records = [
        record(
            spec,
            o.seed,
            o.value,
            o.elapsed_s * 1e3,
            "" if o.ok else f"raised: {o.error}",
        )
        for o in cold.outcomes
    ]
    cold_digest = {o.seed: r["digest"] for o, r in zip(cold.outcomes, records)}
    for warm in warms:
        for outcome in warm.outcomes:
            problem = ""
            if not outcome.cached:
                problem = "warm resubmit missed the store"
            elif outcome.value.outcome_digest() != cold_digest[outcome.seed]:
                problem = "warm resubmit differs from the cold pass"
            records.append({"key": WARM, "problem": problem})
    return records


def fresh_store() -> tempfile.TemporaryDirectory:
    """A temporary result-store directory inside the checkout."""
    WORK_DIR.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK_DIR)


def run_sweep_round(workload: Workload, seed: int, workers: int) -> dict:
    """A fresh store, then per variant one cold pass and its warm resubmits."""
    from repro.harness import SweepRunner

    seeds = sim_seeds(seed, workload.seeds)
    records: list[dict] = []
    cold_s = warm_s = busy_s = 0.0
    with fresh_store() as store:
        runner = SweepRunner(workers=workers, use_cache=True, cache_dir=store)
        for app, variant in workload.combos:
            spec = make_spec(app, variant, workload.frames, seeds)
            started = time.perf_counter()
            cold = runner.run_spec(spec)
            cold_s += time.perf_counter() - started
            busy_s += sum(o.elapsed_s for o in cold.outcomes)
            warms = []
            started = time.perf_counter()
            for _ in range(WARM_PASSES):
                warms.append(runner.run_spec(spec))
            warm_s += time.perf_counter() - started
            records += sweep_records(spec, cold, warms)
        store_bytes = sum(p.stat().st_size for p in Path(store).glob("*.jsonl"))
    n_cold = len(workload.combos) * len(seeds)
    warm_ok = sum(1 for r in records if r["key"] == WARM and not r["problem"])
    return {
        "records": records,
        "frames": n_cold * workload.frames,
        "compute_s": cold_s,
        "harness": {
            "sweep_overhead_frac": 1.0 - busy_s / (workers * cold_s),
            "store_bytes_per_seed": store_bytes / n_cold,
            "cache_hit_ratio": warm_ok / (n_cold * WARM_PASSES),
            "resubmit_seeds_per_s": n_cold * WARM_PASSES / warm_s,
        },
    }


def run_inline_round(workload: Workload, seed: int, index: int) -> dict:
    """One seed (cycled by round *index*) through every app/variant."""
    sim_seed = sim_seeds(seed, workload.seeds)[index % workload.seeds]
    started = time.perf_counter()
    records = [
        run_inline(make_spec(app, variant, workload.frames, (sim_seed,)), sim_seed)
        for app, variant in workload.combos
    ]
    return {
        "records": records,
        "frames": sum(r["frames"] for r in records),
        "compute_s": time.perf_counter() - started,
    }


def setup(workload: Workload, seed: int) -> list[dict]:
    """Imports plus one short run of each app/variant of *workload*."""
    first = sim_seeds(seed, 1)[0]
    return [
        run_inline(make_spec(app, variant, SETUP_FRAMES, (first,)), first)
        for app, variant in workload.combos
    ]


def peak_rss_mb() -> float:
    """Max resident set of this process and its (reaped) pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def timed_rep(
    workload: Workload, seed: int, rep: int, budget_s: float, spawned: float
) -> dict:
    """Set up, then run whole rounds until *budget_s* has elapsed."""
    # Set-up is scaled by host-speed samples taken around it; the first
    # sample's own time is not set-up time.
    before = reference_s()
    setup_records = setup(workload, seed)
    setup_s = time.monotonic() - spawned - before
    setup_slowdown = (before + reference_s()) / 2 / REFERENCE_NOMINAL_S
    from repro.harness import default_workers

    workers = min(2, default_workers()) if workload.sweep else 1
    first = rep * workload.seeds // REPS
    rounds = []
    # Host speed is sampled before the first round and after every round.
    with HostSpeed(workers) as speed:
        speed.sample()  # start the helpers
        samples = [speed.sample()]
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < budget_s:
            if workload.sweep:
                rounds.append(run_sweep_round(workload, seed, workers))
            else:
                rounds.append(run_inline_round(workload, seed, first + len(rounds)))
            samples.append(speed.sample())
    slowdowns = [(a + b) / 2 for a, b in zip(samples, samples[1:])]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "setup_records": setup_records,
        "records": [r for rnd in rounds for r in rnd["records"]],
        "rounds": [
            {
                "rate": rnd["frames"] / rnd["compute_s"],
                "ms": [
                    r["ms"]
                    for r in rnd["records"]
                    if r["key"] != WARM and not r["problem"]
                ],
                "slowdown": slowdown,
            }
            for rnd, slowdown in zip(rounds, slowdowns)
        ],
        "setup_slowdown": setup_slowdown,
        "harness": [rnd["harness"] for rnd in rounds if "harness" in rnd],
    }


# ---------------------------------------------------------------------------
# The traced pass.
# ---------------------------------------------------------------------------


def reduced_pass(workload: Workload, seed: int, tracer=None, observe=False):
    """The traced pass's reduced workload, optionally under *tracer*.

    Returns ``(records, frames, wall_s)``.  The sweep workload runs a
    single-worker cold pass and one warm resubmission per variant into
    a fresh store; with *observe* (the count pass) every seed runs
    inline instead, because counts are read off in-process worlds.
    """
    records: list[dict] = []
    frames = 0
    wall = 0.0

    def timed(run_id, fn):
        nonlocal wall
        if tracer is None:
            started = time.perf_counter()
            result = fn()
            wall += time.perf_counter() - started
            return result
        result, elapsed = tracer.trace(run_id, "harness", fn)
        wall += elapsed
        return result

    seeds = sim_seeds(seed, workload.trace_seeds)
    if workload.sweep and not observe:
        from repro.harness import SweepRunner

        with fresh_store() as store:
            runner = SweepRunner(workers=1, use_cache=True, cache_dir=store)
            for app, variant in workload.combos:
                spec = make_spec(app, variant, workload.trace_frames, seeds)
                run_id = f"{app}/{variant}/sweep"
                cold = timed(f"{run_id}-cold", lambda: runner.run_spec(spec))
                warm = timed(f"{run_id}-warm", lambda: runner.run_spec(spec))
                recs = sweep_records(spec, cold, [warm])
                records += recs
                frames += sum(r["frames"] for r in recs if r["key"] != WARM)
        return records, frames, wall

    for app, variant in workload.combos:
        for s in seeds:
            spec = make_spec(app, variant, workload.trace_frames, (s,), observe)
            rec = timed(f"{app}/{variant}/{s}", lambda: run_inline(spec, s))
            records.append(rec)
            frames += rec["frames"]
    return records, frames, wall


def traced_pass(workload: Workload, seed: int, trace_out: str | None) -> dict:
    """Untraced reference, traced pass and count pass of the reduced workload.

    All three passes report their records under the same keys; run.py
    checks that their digests agree, so neither instrument perturbs a run.
    """
    from layers import LAYERS, CountCapture, LayerTracer, unmapped_modules
    from repro.obs.export import validate_trace_data

    setup(workload, seed)
    problems: list[str] = []
    unmapped = unmapped_modules()
    if unmapped:
        problems.append(f"modules without a layer: {unmapped}")

    reference, frames, plain_wall = reduced_pass(workload, seed)
    tracer = LayerTracer()
    traced, _, traced_wall = reduced_pass(workload, seed, tracer)
    with CountCapture() as capture:
        counted, _, _ = reduced_pass(workload, seed, observe=True)

    self_ns, entries = tracer.layer_totals()
    total_ns = sum(self_ns.values())
    if abs(total_ns / 1e9 - traced_wall) > 0.02 * traced_wall:
        problems.append(
            f"layer self times sum to {total_ns / 1e9:.4f}s, not the traced "
            f"wall {traced_wall:.4f}s"
        )
    events, not_written = tracer.trace_events(TRACE_FILE_SPANS)
    problems += [f"trace: {p}" for p in validate_trace_data(events)[:5]]
    if trace_out:
        document = {
            "traceEvents": events,
            "otherData": {"spans": len(tracer), "spans_not_written": not_written},
        }
        Path(trace_out).write_text(json.dumps(document))

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = self_ns[layer] / total_ns
        metrics[f"{layer}.self_us_per_frame"] = self_ns[layer] / 1e3 / frames
        metrics[f"{layer}.entries_per_frame"] = entries[layer] / frames

    counts = capture.counts()
    observed: dict[str, int] = {}
    for r in counted:
        for name, value in r.get("counters", {}).items():
            observed[name] = observed.get(name, 0) + value
    exact = {
        "kernel.events_per_frame": counts["kernel.events"],
        "sched.dispatches_per_frame": observed.get("sched.dispatches", 0),
        "rng.draws_per_frame": tracer.draws,
        "network.frames_per_frame": counts["network.frames"],
        "network.bytes_per_frame": counts["network.bytes"],
        "someip.messages_per_frame": observed.get("someip.tx_messages", 0),
        "reactors.reactions_per_frame": observed.get("reactor.reactions", 0),
        "trace.records_per_frame": counts["trace.records"],
        "trace.repr_calls_per_frame": counts["trace.repr_calls"],
        "dear.messages_per_frame": observed.get("dear.messages_delivered", 0),
    }
    metrics.update({name: value / frames for name, value in exact.items()})
    metrics["trace_overhead_x"] = traced_wall / plain_wall
    return {
        "metrics": metrics,
        "frames": frames,
        "spans": len(tracer),
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "records": reference + traced + counted,
        "problems": problems,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("rep", "trace"))
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--budget", type=float, default=1.0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    import repro

    checkout = HERE.parent.parent / "src" / "repro"
    if Path(repro.__file__).resolve().parent != checkout:
        raise SystemExit(f"repro imported from {repro.__file__}, not from {checkout}")
    workload = WORKLOADS[args.workload]
    if args.mode == "rep":
        out = timed_rep(workload, args.seed, args.rep, args.budget, args.spawned)
    else:
        out = traced_pass(workload, args.seed, args.trace_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
