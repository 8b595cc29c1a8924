"""Tests for the parallel sweep engine and its on-disk result store.

:class:`repro.harness.sweep.ResultStore` is shared by
:class:`SweepRunner` and the sweep service's coordinator; its tests from
the coordinator's side live in ``test_service_store.py``.
"""

import multiprocessing
import os
import warnings
from collections import Counter
from dataclasses import replace
from functools import partial

import pytest

from repro.apps.brake import BrakeScenario, run_det_brake_assistant
from repro.harness import (
    ResultStore,
    ScenarioSpec,
    SweepError,
    SweepRunner,
    code_fingerprint,
    driver_fingerprint,
    make_record,
)
from repro.harness.sweep import (
    _cgroup_cpu_quota,
    decode_value,
    default_workers,
    encode_value,
)
from repro.service import Coordinator, LocalClient, Worker


def _double(seed):
    return seed * 2


def _fail_on_odd(seed):
    if seed % 2:
        raise ValueError(f"seed {seed} is odd")
    return seed


class TestSweepRunner:
    def test_merges_in_seed_order(self, tmp_path):
        runner = SweepRunner(workers=4, use_cache=False, cache_dir=tmp_path)
        assert runner.map(_double, [5, 1, 3], name="t") == [10, 2, 6]

    def test_matches_sequential_map(self, tmp_path):
        """workers=4 must be bit-identical to the sequential path —
        per-seed results *and* trace fingerprints."""
        scenario = BrakeScenario(n_frames=80, deterministic_camera=True)
        experiment = partial(run_det_brake_assistant, scenario=scenario)
        sequential = SweepRunner(
            workers=1, use_cache=False, cache_dir=tmp_path
        ).map(experiment, range(3), name="det-seq")
        parallel = SweepRunner(
            workers=4, use_cache=False, cache_dir=tmp_path
        ).map(experiment, range(3), name="det")
        assert parallel == sequential  # dataclass eq: every field
        for seq_run, par_run in zip(sequential, parallel):
            assert par_run.trace_fingerprints == seq_run.trace_fingerprints
            assert par_run.commands == seq_run.commands

    def test_error_capture_does_not_kill_sweep(self, tmp_path):
        runner = SweepRunner(workers=2, use_cache=False, cache_dir=tmp_path)
        result = runner.run(_fail_on_odd, range(4), name="t")
        assert len(result.outcomes) == 4  # the sweep completed
        assert [outcome.ok for outcome in result.outcomes] == [
            True, False, True, False,
        ]
        assert result.outcomes[0].value == 0
        assert "seed 1 is odd" in result.outcomes[1].error
        with pytest.raises(SweepError, match="2 seed"):
            result.values()

    def test_failed_seeds_are_not_cached(self, tmp_path):
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        runner.run(_fail_on_odd, range(4), name="t")
        rerun = SweepRunner(workers=1, cache_dir=tmp_path).run(
            _fail_on_odd, range(4), name="t"
        )
        assert rerun.cache_hits == 2  # only the successes

    def test_stats_accumulate(self, tmp_path):
        runner = SweepRunner(workers=1, use_cache=False, cache_dir=tmp_path)
        runner.run(_double, range(3), name="a")
        runner.run(_double, range(2), name="b")
        assert runner.stats.sweeps == 2
        assert runner.stats.seeds == 5
        assert "5 seeds" in runner.stats.summary_line()


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cold = SweepRunner(workers=1, cache_dir=tmp_path)
        first = cold.run(_double, range(4), name="exp")
        assert first.cache_hits == 0
        warm = SweepRunner(workers=1, cache_dir=tmp_path)
        second = warm.run(_double, range(4), name="exp")
        assert second.cache_hits == 4
        assert second.values() == first.values()

    def test_partial_hit(self, tmp_path):
        SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(2), name="exp"
        )
        result = SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(4), name="exp"
        )
        assert result.cache_hits == 2
        assert result.values() == [0, 2, 4, 6]

    def test_force_recomputes(self, tmp_path):
        SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(3), name="exp"
        )
        forced = SweepRunner(workers=1, cache_dir=tmp_path, force=True).run(
            _double, range(3), name="exp"
        )
        assert forced.cache_hits == 0
        assert forced.values() == [0, 2, 4]
        # ...and the forced results land back in the cache.
        after = SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(3), name="exp"
        )
        assert after.cache_hits == 3

    def test_no_cache_writes_nothing(self, tmp_path):
        SweepRunner(workers=1, use_cache=False, cache_dir=tmp_path).run(
            _double, range(3), name="exp"
        )
        assert list(tmp_path.iterdir()) == []

    def test_params_partition_the_key_space(self, tmp_path):
        SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(3), name="exp", params={"frames": 100}
        )
        other = SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(3), name="exp", params={"frames": 200}
        )
        assert other.cache_hits == 0

    def test_corrupt_lines_are_misses(self, tmp_path):
        SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(2), name="exp"
        )
        cache_file = tmp_path / "exp.jsonl"
        cache_file.write_text("not json\n" + cache_file.read_text())
        with pytest.warns(RuntimeWarning):
            result = SweepRunner(workers=1, cache_dir=tmp_path).run(
                _double, range(2), name="exp"
            )
        assert result.cache_hits == 2  # valid records survive the junk

    def test_payload_encoding_round_trips(self):
        for value in (
            7,
            [1, 2, 3],
            {"a": 1},
            (1, 2),                       # tuple: JSON would flatten to list
            {3: "x"},                     # int keys: JSON would stringify
            Counter({"a": 2}),
        ):
            encoding, payload = encode_value(value)
            decoded = decode_value(encoding, payload)
            assert decoded == value
            assert type(decoded) is type(value)

    def test_code_fingerprint_is_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16


def _small_spec(seeds=(0, 1, 2), label=""):
    return ScenarioSpec(
        variant="det",
        seeds=seeds,
        scenario=BrakeScenario(n_frames=20),
        label=label,
    )


class TestSharedStore:
    """``run_spec`` and the coordinator address the same records."""

    def test_local_sweep_then_campaign_is_a_pure_hit(self, tmp_path):
        spec = _small_spec()
        SweepRunner(workers=1, cache_dir=tmp_path).run_spec(spec)
        status = Coordinator(ResultStore(tmp_path)).submit(spec)
        assert status["pending"] == 0
        assert status["cached"] == len(spec.seeds)

    def test_campaign_then_local_sweep_is_a_pure_hit(self, tmp_path):
        spec = _small_spec()
        client = LocalClient(Coordinator(ResultStore(tmp_path)))
        status = client.submit(spec)
        assert Worker(client).run(max_jobs=status["jobs"]) == status["jobs"]
        result = SweepRunner(workers=1, cache_dir=tmp_path).run_spec(spec)
        assert result.cache_hits == len(spec.seeds)

    def test_relabelled_spec_and_seed_subset_hit(self, tmp_path):
        spec = _small_spec(label="first")
        cold = SweepRunner(workers=1, cache_dir=tmp_path).run_spec(spec)
        relabelled = SweepRunner(workers=1, cache_dir=tmp_path).run_spec(
            replace(spec, label="renamed")
        )
        assert relabelled.cache_hits == 3
        assert relabelled.values() == cold.values()
        subset = SweepRunner(workers=1, cache_dir=tmp_path).run_spec(
            spec.with_seeds((2, 0))
        )
        assert subset.cache_hits == 2


def _load_external_driver(path):
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location("ext_sweep_driver", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["ext_sweep_driver"] = module
    spec.loader.exec_module(module)
    return module


class TestDriverFingerprint:
    """The cache key also hashes the module defining the experiment."""

    def test_repro_internal_driver_is_covered_by_code_fingerprint(self):
        assert driver_fingerprint(run_det_brake_assistant) == ""
        assert driver_fingerprint(partial(run_det_brake_assistant)) == ""

    def test_external_driver_change_invalidates_cache(self, tmp_path):
        driver_file = tmp_path / "ext_sweep_driver.py"
        driver_file.write_text("def drive(seed):\n    return seed * 2\n")
        module = _load_external_driver(driver_file)
        first = driver_fingerprint(module.drive)
        assert first != ""

        runner = SweepRunner(workers=1, cache_dir=tmp_path / "cache")
        runner.run(module.drive, range(3), name="ext")

        # Same driver source: full cache hit.
        rerun = SweepRunner(workers=1, cache_dir=tmp_path / "cache").run(
            module.drive, range(3), name="ext"
        )
        assert rerun.cache_hits == 3

        # Edited driver source: fingerprint changes, cache misses.
        driver_file.write_text("def drive(seed):\n    return seed * 3\n")
        module = _load_external_driver(driver_file)
        assert driver_fingerprint(module.drive) != first
        edited = SweepRunner(workers=1, cache_dir=tmp_path / "cache").run(
            module.drive, range(3), name="ext"
        )
        assert edited.cache_hits == 0
        assert edited.values() == [0, 3, 6]

    def test_partial_layers_are_unwrapped(self, tmp_path):
        driver_file = tmp_path / "ext_sweep_driver.py"
        driver_file.write_text("def drive(seed, scale=1):\n    return seed * scale\n")
        module = _load_external_driver(driver_file)
        direct = driver_fingerprint(module.drive)
        wrapped = driver_fingerprint(partial(partial(module.drive, scale=2)))
        assert direct == wrapped != ""


def _store_hammer(args):
    directory, writer, count = args
    store = ResultStore(directory)
    for index in range(count):
        store.append(
            "contended", [make_record(f"w{writer}-{index}", index, [writer, index])]
        )
    return writer


class TestResultCacheCrashSafety:
    """Regression tests for concurrent appends and crash-torn lines."""

    def test_torn_tail_is_skipped_and_warned(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("exp", [make_record("k1", 0, 1)])
        with (tmp_path / "exp.jsonl").open("ab") as handle:
            handle.write(b'{"key": "k2", "enc')  # writer crashed mid-append
        fresh = ResultStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="1 malformed"):
            found = fresh.get_many("exp", ["k1", "k2"])
        assert found == {"k1": 1}
        assert fresh.malformed == {"exp.jsonl": 1}
        # ...and only warns once per store file, not per read.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh.get_many("exp", ["k1"])

    def test_append_after_crash_repairs_the_tail(self, tmp_path):
        """A record appended after a torn line must stay parseable."""
        store = ResultStore(tmp_path)
        store.append("exp", [make_record("before", 0, 1)])
        path = tmp_path / "exp.jsonl"
        with path.open("ab") as handle:
            handle.write(b'{"key": "torn...')
        store.append("exp", [make_record("after", 1, 2)])
        with pytest.warns(RuntimeWarning):
            found = ResultStore(tmp_path).get_many("exp", ["before", "after"])
        assert found == {"before": 1, "after": 2}
        assert len(path.read_bytes().splitlines()) == 3

    def test_sweep_recomputes_past_a_crashed_writer(self, tmp_path):
        """End to end: a torn cache line costs a recompute, nothing else."""
        SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(3), name="exp"
        )
        with (tmp_path / "exp.jsonl").open("ab") as handle:
            handle.write(b'{"key": "half-a-reco')
        with pytest.warns(RuntimeWarning):
            result = SweepRunner(workers=1, cache_dir=tmp_path).run(
                _double, range(3), name="exp"
            )
        assert result.cache_hits == 3
        assert result.values() == [0, 2, 4]

    def test_parallel_process_appends_never_interleave(self, tmp_path):
        writers, per_writer = 4, 20
        with multiprocessing.Pool(writers) as pool:
            pool.map(
                _store_hammer,
                [(str(tmp_path), w, per_writer) for w in range(writers)],
            )
        keys = [f"w{w}-{i}" for w in range(writers) for i in range(per_writer)]
        found = ResultStore(tmp_path).get_many("contended", keys)
        assert len(found) == writers * per_writer
        for writer in range(writers):
            for index in range(per_writer):
                assert found[f"w{writer}-{index}"] == [writer, index]

    def test_compact_drops_shadowed_and_torn(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("exp", [make_record("k", 0, "stale")])
        store.append("exp", [make_record("k", 0, "fresh")])
        with (tmp_path / "exp.jsonl").open("ab") as handle:
            handle.write(b"torn line no newline")
        with pytest.warns(RuntimeWarning):
            assert store.compact() == {"records": 1, "dropped": 2}
        assert store.get_many("exp", ["k"]) == {"k": "fresh"}
        assert len((tmp_path / "exp.jsonl").read_text().splitlines()) == 1
        assert store.stats() == {"records": 1, "files": 1, "malformed_lines": 0}


class TestDefaultWorkers:
    def test_repro_workers_env_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert default_workers() == 7

    def test_repro_workers_env_is_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1

    def test_cgroup_v2_quota(self, tmp_path):
        (tmp_path / "cpu.max").write_text("200000 100000\n")
        assert _cgroup_cpu_quota(tmp_path) == 2

    def test_cgroup_v2_fractional_quota_rounds_up(self, tmp_path):
        (tmp_path / "cpu.max").write_text("150000 100000\n")
        assert _cgroup_cpu_quota(tmp_path) == 2

    def test_cgroup_v2_unlimited(self, tmp_path):
        (tmp_path / "cpu.max").write_text("max 100000\n")
        assert _cgroup_cpu_quota(tmp_path) is None

    def test_cgroup_v1_quota(self, tmp_path):
        (tmp_path / "cpu").mkdir()
        (tmp_path / "cpu" / "cpu.cfs_quota_us").write_text("250000\n")
        (tmp_path / "cpu" / "cpu.cfs_period_us").write_text("100000\n")
        assert _cgroup_cpu_quota(tmp_path) == 3

    def test_cgroup_v1_unlimited(self, tmp_path):
        (tmp_path / "cpu").mkdir()
        (tmp_path / "cpu" / "cpu.cfs_quota_us").write_text("-1\n")
        (tmp_path / "cpu" / "cpu.cfs_period_us").write_text("100000\n")
        assert _cgroup_cpu_quota(tmp_path) is None

    def test_no_cgroup_files(self, tmp_path):
        assert _cgroup_cpu_quota(tmp_path) is None

    def test_quota_caps_the_pool(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr("repro.harness.sweep._cgroup_cpu_quota", lambda: 1)
        assert default_workers() == 1

    def test_generous_quota_does_not_inflate(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr("repro.harness.sweep._cgroup_cpu_quota", lambda: 4096)
        assert default_workers() <= (os.cpu_count() or 1)
