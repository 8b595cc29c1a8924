"""Parallel seeded-sweep engine with on-disk result caching.

Every paper artifact is an embarrassingly parallel sweep over seeds (or
over another scalar knob such as a deadline or a pipeline depth).  The
:class:`SweepRunner` fans the per-seed work out over a
``concurrent.futures.ProcessPoolExecutor`` and merges the results back
**in seed order**, so the merged output is bit-identical to a
sequential single-worker run — each seed
builds its own :class:`~repro.sim.World`, so per-seed results (including
trace fingerprints) do not depend on scheduling across seeds.

Results are cached in the :class:`ResultStore` under ``.repro_cache/``
(one JSON-lines file per sweep), keyed by :func:`record_key`: sweep
name + parameters + seed + a fingerprint of the ``repro`` source tree,
so repeated CLI/benchmark invocations skip already-computed seeds.  The
sweep service's coordinator keys and stores campaign results the same
way, so a local sweep and a campaign over one directory share results.
``force=True`` recomputes and overwrites; ``use_cache=False`` bypasses
the cache entirely.

Environment knobs:

``REPRO_WORKERS``
    Default worker count (else the CPUs actually *available*: scheduler
    affinity capped by the cgroup CPU quota).  ``1`` runs inline.
``REPRO_CACHE_DIR``
    Cache directory (default ``.repro_cache`` in the working directory).
``REPRO_NO_CACHE``
    Any non-empty value disables the cache by default.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import pickle
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.harness.runner import env_int
from repro.obs import fleet

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "SweepRunner",
    "SweepResult",
    "SeedOutcome",
    "SweepStats",
    "SweepError",
    "ResultStore",
    "record_key",
    "make_record",
    "encode_value",
    "decode_value",
    "code_fingerprint",
    "driver_fingerprint",
    "default_workers",
]

DEFAULT_CACHE_DIR = ".repro_cache"


def _cgroup_cpu_quota(root: str | Path = "/sys/fs/cgroup") -> int | None:
    """CPU count implied by the cgroup CPU quota, or ``None``.

    CI containers routinely advertise the host's full core count via
    ``os.cpu_count()`` while the cgroup caps them to one or two CPUs of
    bandwidth; sizing a process pool off the host count oversubscribes
    the quota and thrashes.  Reads cgroup v2 ``cpu.max`` (``"<quota>
    <period>"`` or ``"max <period>"``) and falls back to the cgroup v1
    ``cpu.cfs_quota_us``/``cpu.cfs_period_us`` pair.
    """
    root = Path(root)
    try:
        parts = (root / "cpu.max").read_text().split()
        if parts and parts[0] != "max":
            quota = int(parts[0])
            period = int(parts[1]) if len(parts) > 1 else 100_000
            if quota > 0 and period > 0:
                return max(1, math.ceil(quota / period))
    except (OSError, ValueError):
        pass
    try:
        quota = int((root / "cpu" / "cpu.cfs_quota_us").read_text())
        period = int((root / "cpu" / "cpu.cfs_period_us").read_text())
        if quota > 0 and period > 0:
            return max(1, math.ceil(quota / period))
    except (OSError, ValueError):
        pass
    return None


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS``, else the *available* CPUs.

    "Available" respects what the platform actually grants this
    process: ``os.process_cpu_count()`` (Python 3.13+) or the scheduler
    affinity mask, further capped by the cgroup CPU quota
    (:func:`_cgroup_cpu_quota`) so containerized CI runs stop
    oversubscribing their bandwidth limit.
    """
    if os.environ.get("REPRO_WORKERS") is not None:
        return max(1, env_int("REPRO_WORKERS", 1))
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        available = process_cpu_count() or 1
    else:
        try:
            available = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            available = os.cpu_count() or 1
    quota = _cgroup_cpu_quota()
    if quota is not None:
        available = min(available, quota)
    return max(1, available)


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of the ``repro`` source tree (cache-invalidation key).

    Any change to the library invalidates previously cached sweep
    results, so a cache hit is always the result the current code would
    have produced.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def driver_fingerprint(experiment: Callable[..., Any]) -> str:
    """Hash of the module file *defining* the experiment callable.

    :func:`code_fingerprint` only covers the ``repro`` package, so a
    driver defined elsewhere — a benchmark script, a test module, a
    notebook export — could change without invalidating its cached
    results.  This hashes the defining module's source (unwrapping
    ``functools.partial`` layers first); drivers inside the ``repro``
    tree return ``""`` since the code fingerprint already covers them.
    """
    import repro

    while isinstance(experiment, partial):
        experiment = experiment.func
    module_name = getattr(experiment, "__module__", None)
    module = sys.modules.get(module_name) if module_name else None
    source = getattr(module, "__file__", None)
    if not source:
        return ""
    try:
        path = Path(source).resolve()
        root = Path(repro.__file__).resolve().parent
        if path.is_relative_to(root):
            return ""
        return hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# Result records.
# ---------------------------------------------------------------------------


@dataclass
class SeedOutcome:
    """One seed's outcome: a value, or a captured error."""

    seed: Any
    value: Any = None
    #: Formatted traceback if the seed failed; ``None`` on success.
    error: str | None = None
    #: Whether the value came from the on-disk cache.
    cached: bool = False
    #: Wall-clock compute time (0.0 for cache hits).
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


class SweepError(RuntimeError):
    """Raised by :meth:`SweepResult.values` when any seed failed."""

    def __init__(self, name: str, failures: Sequence[SeedOutcome]):
        self.name = name
        self.failures = list(failures)
        first = self.failures[0]
        super().__init__(
            f"sweep {name!r}: {len(self.failures)} seed(s) failed; "
            f"first failure (seed {first.seed!r}):\n{first.error}"
        )


@dataclass
class SweepResult:
    """All outcomes of one sweep, merged in seed order."""

    name: str
    outcomes: list[SeedOutcome]
    elapsed_s: float
    workers: int

    @property
    def failures(self) -> list[SeedOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    def values(self) -> list[Any]:
        """Per-seed values in seed order; raises :class:`SweepError`
        if any seed failed (after the whole sweep completed)."""
        if self.failures:
            raise SweepError(self.name, self.failures)
        return [outcome.value for outcome in self.outcomes]


@dataclass
class SweepStats:
    """Throughput accounting accumulated across a runner's sweeps."""

    seeds: int = 0
    cache_hits: int = 0
    errors: int = 0
    elapsed_s: float = 0.0
    sweeps: int = 0
    workers: int = 0

    def record(self, result: SweepResult) -> None:
        self.sweeps += 1
        self.seeds += len(result.outcomes)
        self.cache_hits += result.cache_hits
        self.errors += len(result.failures)
        self.elapsed_s += result.elapsed_s
        self.workers = max(self.workers, result.workers)

    def summary_line(self) -> str:
        from repro.analysis.report import sweep_summary

        return sweep_summary(
            seeds=self.seeds,
            elapsed_s=self.elapsed_s,
            cache_hits=self.cache_hits,
            errors=self.errors,
            workers=self.workers,
        )


# ---------------------------------------------------------------------------
# The result store.
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> tuple[str, Any]:
    """Encode a result for a JSON-lines record.

    Values that survive an exact JSON round-trip are stored as plain
    JSON; everything else (dataclasses, Counters, int-keyed dicts —
    which JSON would silently corrupt) is pickled and base64-wrapped.
    """
    try:
        text = json.dumps(value)
        if json.loads(text) == value:
            return "json", value
    except (TypeError, ValueError):
        pass
    blob = base64.b64encode(pickle.dumps(value)).decode("ascii")
    return "pickle", blob


def decode_value(encoding: str, payload: Any) -> Any:
    """Inverse of :func:`encode_value`; raises on a corrupt payload."""
    if encoding == "json":
        return payload
    if encoding == "pickle":
        return pickle.loads(base64.b64decode(payload))
    raise ValueError(f"unknown cache encoding {encoding!r}")


def _jsonable_seed(seed: Any) -> Any:
    """A JSON-able form of a sweep item for keys and records."""
    if isinstance(seed, (bool, int, float, str)) or seed is None:
        return seed
    if isinstance(seed, (tuple, list)):
        return [_jsonable_seed(item) for item in seed]
    return repr(seed)


def record_key(name: str, params: dict, seed: Any, driver: str = "") -> str:
    """Content key of one seed's result in a :class:`ResultStore`.

    SHA-256 over the sweep *name*, its *params*, the seed, the
    :func:`code_fingerprint` and the *driver* fingerprint.  Local sweeps
    and sweep-service campaigns both key their records here, so they
    address the same results.
    """
    material = json.dumps(
        {
            "experiment": name,
            "params": params,
            "seed": _jsonable_seed(seed),
            "code": code_fingerprint(),
            "driver": driver,
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(material.encode()).hexdigest()[:32]


def make_record(key: str, seed: Any, value: Any) -> dict:
    """The store record holding *value* under *key*."""
    encoding, payload = encode_value(value)
    return {
        "key": key,
        "seed": _jsonable_seed(seed),
        "encoding": encoding,
        "payload": payload,
    }


class _FileLock:
    """``fcntl`` advisory lock on a ``<file>.lock`` sidecar.

    Locking a sidecar (not the data file itself) lets compaction
    atomically replace the data file while holding the lock.  Degrades
    to a no-op where ``fcntl`` is unavailable.
    """

    def __init__(self, target: Path, shared: bool = False):
        self.path = target.with_name(target.name + ".lock")
        self.shared = shared
        self._handle = None

    def __enter__(self) -> "_FileLock":
        if fcntl is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a")
            mode = fcntl.LOCK_SH if self.shared else fcntl.LOCK_EX
            fcntl.flock(self._handle, mode)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._handle is not None:
            fcntl.flock(self._handle, fcntl.LOCK_UN)
            self._handle.close()
            self._handle = None


def _tail_is_torn(path: Path) -> bool:
    """True when *path* ends in a partial (unterminated) JSONL line —
    the signature of a writer that crashed mid-append."""
    try:
        size = path.stat().st_size
    except OSError:
        return False
    if size == 0:
        return False
    with path.open("rb") as handle:
        handle.seek(-1, os.SEEK_END)
        return handle.read(1) != b"\n"


class ResultStore:
    """Content-addressed JSON-lines store: one ``<name>.jsonl`` per sweep.

    Each record is one JSON line ``{"key", "seed", "encoding",
    "payload"}`` keyed by :func:`record_key`.  Records are append-only;
    on read, later records win, so ``force`` reruns simply shadow stale
    entries.  Appends from concurrent processes — sweep runners, a
    service coordinator, hosts sharing the directory — are serialized
    by an ``fcntl`` advisory lock and written as a single ``write()``
    plus ``fsync``, so records never interleave.  A torn trailing line
    left by a crashed writer is skipped on read (counted in
    :attr:`malformed`, warned once per file) and terminated before the
    next append, so one crash damages at most its own half-written
    record.  A record whose payload does not decode is a miss, so every
    reader recomputes it.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        #: malformed line count per store file seen on its last read.
        self.malformed: dict[str, int] = {}
        self._warned: set[str] = set()

    def _path(self, name: str) -> Path:
        safe = "".join(ch if ch.isalnum() or ch in "-._" else "_" for ch in name)
        return self.directory / f"{safe}.jsonl"

    def _read(self, path: Path) -> dict[str, dict]:
        """Surviving records of one file, keyed by key (lock held)."""
        records: dict[str, dict] = {}
        try:
            data = path.read_bytes()
        except OSError:
            return records
        malformed = 0
        for line in data.split(b"\n"):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                records[record["key"]] = record
            except (ValueError, KeyError, TypeError):
                malformed += 1  # torn/corrupt line: miss, but reported
        if not malformed:
            self.malformed.pop(path.name, None)
            return records
        self.malformed[path.name] = malformed
        fleet.inc("fleet.result_store.malformed_lines", malformed)
        if path.name not in self._warned:
            self._warned.add(path.name)
            warnings.warn(
                f"result store {path}: skipped {malformed} malformed "
                f"record(s) (torn line from a crashed append?); they "
                f"will be recomputed",
                RuntimeWarning,
                stacklevel=3,
            )
        return records

    def get_many(self, name: str, keys: Iterable[str]) -> dict[str, Any]:
        """Decoded values of the *keys* stored under *name*.

        Absent keys and records whose payload does not decode are left
        out: both are misses.
        """
        keys = list(keys)
        path = self._path(name)
        records: dict[str, dict] = {}
        if path.exists():
            with _FileLock(path, shared=True):
                records = self._read(path)
        found: dict[str, Any] = {}
        for key in keys:
            record = records.get(key)
            if record is None:
                continue
            try:
                found[key] = decode_value(record["encoding"], record["payload"])
            except Exception:  # corrupt payload: recomputed like a miss
                continue
        fleet.inc("fleet.result_store.gets", len(keys))
        fleet.inc("fleet.result_store.hits", len(found))
        fleet.inc("fleet.result_store.misses", len(keys) - len(found))
        return found

    def append(self, name: str, records: Iterable[dict]) -> None:
        """Append *records* to *name*'s file in one locked write."""
        records = list(records)
        if not records:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(name)
        blob = "".join(json.dumps(record) + "\n" for record in records).encode()
        with _FileLock(path):
            with path.open("ab") as handle:
                if _tail_is_torn(path):
                    handle.write(b"\n")  # repair a crashed writer's tail
                    fleet.inc("fleet.result_store.torn_repairs")
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
        fleet.inc("fleet.result_store.puts", len(records))

    def compact(self) -> dict[str, int]:
        """Rewrite every store file keeping one record per key.

        Returns ``{"records": survivors, "dropped": shadowed+malformed}``.
        Each file is replaced atomically (temp file + ``os.replace``)
        under its exclusive lock, so concurrent readers see either the
        old or the new file, never a partial one.
        """
        survivors = 0
        dropped = 0
        for path in sorted(self.directory.glob("*.jsonl")):
            with _FileLock(path):
                raw_lines = sum(
                    1 for line in path.read_bytes().split(b"\n") if line.strip()
                )
                records = self._read(path)
                handle, temp_path = tempfile.mkstemp(
                    dir=self.directory, suffix=".tmp"
                )
                try:
                    with os.fdopen(handle, "w") as temp:
                        for record in records.values():
                            temp.write(json.dumps(record) + "\n")
                        temp.flush()
                        os.fsync(temp.fileno())
                    os.replace(temp_path, path)
                except BaseException:
                    os.unlink(temp_path)
                    raise
                survivors += len(records)
                dropped += raw_lines - len(records)
        return {"records": survivors, "dropped": dropped}

    def stats(self) -> dict:
        """Record/file counts plus malformed lines seen on reads."""
        paths = sorted(self.directory.glob("*.jsonl"))
        records = 0
        for path in paths:
            with _FileLock(path, shared=True):
                records += len(self._read(path))
        return {
            "records": records,
            "files": len(paths),
            "malformed_lines": sum(self.malformed.values()),
        }


# ---------------------------------------------------------------------------
# The runner.
# ---------------------------------------------------------------------------


def _call_experiment(
    experiment: Callable[[Any], Any], seed: Any
) -> tuple[Any, str | None, float]:
    """Run one seed, capturing any exception as a formatted traceback.

    Runs inside the worker process; never raises, so one bad seed
    cannot kill the sweep.
    """
    started = time.perf_counter()
    try:
        value = experiment(seed)
        return value, None, time.perf_counter() - started
    except Exception:
        return None, traceback.format_exc(), time.perf_counter() - started


class SweepRunner:
    """Fan an experiment out over seeds; merge results in seed order.

    The *experiment* callable must be picklable (a module-level
    function, or a :func:`functools.partial` of one with picklable
    arguments) because it crosses a process boundary.

    One runner can serve many sweeps; :attr:`stats` accumulates
    seeds/s, cache hits and errors across all of them for the CLI /
    benchmark summary line.
    """

    def __init__(
        self,
        workers: int | None = None,
        use_cache: bool | None = None,
        force: bool = False,
        cache_dir: str | Path | None = None,
    ):
        self.workers = workers if workers and workers > 0 else default_workers()
        if use_cache is None:
            use_cache = not os.environ.get("REPRO_NO_CACHE")
        self.use_cache = use_cache
        self.force = force
        directory = cache_dir or os.environ.get(
            "REPRO_CACHE_DIR", DEFAULT_CACHE_DIR
        )
        self.store = ResultStore(directory)
        self.stats = SweepStats()

    # -- execution ----------------------------------------------------------

    def run(
        self,
        experiment: Callable[[Any], Any],
        seeds: Iterable[Any],
        *,
        name: str,
        params: dict | None = None,
    ) -> SweepResult:
        """Run *experiment* for every seed; outcomes in seed order.

        A failed seed is captured as a :class:`SeedOutcome` with its
        traceback — the sweep always completes.  Call
        :meth:`SweepResult.values` to get plain values (raising a
        single aggregate :class:`SweepError` if anything failed).
        """
        seeds = list(seeds)
        params = dict(params or {})
        started = time.perf_counter()
        outcomes: list[SeedOutcome | None] = [None] * len(seeds)

        driver = driver_fingerprint(experiment)
        keys = [record_key(name, params, seed, driver) for seed in seeds]
        known = (
            self.store.get_many(name, keys)
            if self.use_cache and not self.force
            else {}
        )
        pending: list[int] = []
        for index, (seed, key) in enumerate(zip(seeds, keys)):
            if key in known:
                outcomes[index] = SeedOutcome(seed, known[key], cached=True)
            else:
                pending.append(index)

        workers = min(self.workers, max(1, len(pending)))
        if pending:
            if workers <= 1:
                for index in pending:
                    value, error, elapsed = _call_experiment(
                        experiment, seeds[index]
                    )
                    outcomes[index] = SeedOutcome(
                        seeds[index], value, error, elapsed_s=elapsed
                    )
            else:
                # Imported here: an inline sweep never starts a pool.
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {
                        index: pool.submit(
                            _call_experiment, experiment, seeds[index]
                        )
                        for index in pending
                    }
                    # Collect in submission (= seed) order: the merge is
                    # deterministic no matter which worker finishes first.
                    for index, future in futures.items():
                        try:
                            value, error, elapsed = future.result()
                        except Exception as exc:  # unpicklable result etc.
                            value, error, elapsed = (
                                None,
                                f"{type(exc).__name__}: {exc}",
                                0.0,
                            )
                        outcomes[index] = SeedOutcome(
                            seeds[index], value, error, elapsed_s=elapsed
                        )
            if self.use_cache:
                self.store.append(
                    name,
                    [
                        make_record(keys[index], seeds[index], outcomes[index].value)
                        for index in pending
                        if outcomes[index].ok
                    ],
                )

        result = SweepResult(
            name=name,
            outcomes=outcomes,  # type: ignore[arg-type]
            elapsed_s=time.perf_counter() - started,
            workers=workers,
        )
        self.stats.record(result)
        fleet.inc("fleet.sweep.sweeps")
        fleet.inc("fleet.sweep.seeds", len(seeds))
        fleet.inc("fleet.sweep.cache_hits", result.cache_hits)
        for outcome in result.outcomes:
            if not outcome.cached:
                fleet.observe("fleet.sweep.task_duration_ns", outcome.elapsed_s * 1e9)
            if outcome.error is not None:
                fleet.inc("fleet.sweep.errors")
        return result

    def map(
        self,
        experiment: Callable[[Any], Any],
        seeds: Iterable[Any],
        *,
        name: str,
        params: dict | None = None,
    ) -> list[Any]:
        """Shorthand: :meth:`run` then :meth:`SweepResult.values`."""
        return self.run(experiment, seeds, name=name, params=params).values()

    def run_spec(self, spec) -> SweepResult:
        """Sweep a :class:`repro.harness.ScenarioSpec` over its seeds.

        Records are filed under :meth:`~repro.harness.ScenarioSpec.store_name`
        and keyed by :meth:`~repro.harness.ScenarioSpec.content` — every
        field but ``seeds`` and ``label`` — exactly as the sweep
        service's coordinator files them.  A relabelled spec, a subset
        of its seeds or a campaign of the same spec is a cache hit; any
        change to the scenario, network, STP bounds or fault plan is a
        distinct entry.
        """
        from repro.harness.config import run_scenario_spec

        experiment = partial(run_scenario_spec, spec=spec)
        return self.run(
            experiment,
            spec.seeds,
            name=spec.store_name(),
            params=spec.content(),
        )

