"""Tests for the result store as the sweep service uses it.

The store itself (:class:`repro.harness.sweep.ResultStore`) is tested
from :class:`SweepRunner`'s side in ``test_sweep.py``.  These tests
cover the coordinator's side: keys derived from spec content, batched
appends of a chunk's records, and campaigns running over a store that a
crashed writer left torn.
"""

import multiprocessing

import pytest

from repro.apps.brake.scenario import BrakeScenario
from repro.faults import FaultPlan
from repro.harness import ResultStore, ScenarioSpec, make_record, record_key
from repro.service import Coordinator, LocalClient, Worker


def _spec(**kwargs):
    defaults = dict(
        variant="det",
        seeds=(0, 1, 2),
        scenario=BrakeScenario(n_frames=40),
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def _spec_key(spec, seed):
    """The store file and key the coordinator files *spec*'s *seed* under."""
    return spec.store_name(), record_key(spec.store_name(), spec.content(), seed)


class TestContentAddressing:
    def test_key_depends_on_seed(self):
        spec = _spec()
        assert _spec_key(spec, 0) != _spec_key(spec, 1)

    def test_key_depends_on_scientific_content(self):
        base = _spec()
        assert _spec_key(base, 0) != _spec_key(_spec(variant="nondet"), 0)
        assert _spec_key(base, 0) != _spec_key(
            _spec(scenario=BrakeScenario(n_frames=41)), 0
        )
        faulted = _spec(faults=FaultPlan.camera_faults(seed=1, drop=0.1))
        assert _spec_key(base, 0) != _spec_key(faulted, 0)


class TestRoundTrip:
    def test_json_and_pickle_values(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(
            "spec-det",
            [
                make_record("a", 0, {"plain": [1, 2, 3]}),
                make_record("b", 1, {1: "int-keyed dicts need pickling"}),
            ],
        )
        found = ResultStore(tmp_path).get_many("spec-det", ["a", "b", "c"])
        assert found == {
            "a": {"plain": [1, 2, 3]},
            "b": {1: "int-keyed dicts need pickling"},
        }

    def test_later_records_shadow_earlier(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("spec-det", [make_record("a", 0, "stale")])
        store.append("spec-det", [make_record("a", 0, "fresh")])
        assert store.get_many("spec-det", ["a"]) == {"a": "fresh"}
        assert store.stats()["records"] == 1


def _hammer(args):
    directory, writer, batches, per_batch = args
    store = ResultStore(directory)
    for batch in range(batches):
        # one append per batch, as the coordinator stores a chunk's seeds
        store.append(
            "spec-det",
            [
                make_record(f"w{writer}-{batch}-{i}", i, [writer, batch, i])
                for i in range(per_batch)
            ],
        )
    return writer


class TestConcurrentWriters:
    def test_parallel_process_appends_never_interleave(self, tmp_path):
        """4 processes × 10 batched appends into one file: every record intact."""
        writers, batches, per_batch = 4, 10, 5
        with multiprocessing.Pool(writers) as pool:
            pool.map(
                _hammer,
                [(str(tmp_path), w, batches, per_batch) for w in range(writers)],
            )
        store = ResultStore(tmp_path)
        assert store.stats() == {
            "records": writers * batches * per_batch,
            "files": 1,
            "malformed_lines": 0,
        }
        keys = [
            f"w{w}-{b}-{i}"
            for w in range(writers)
            for b in range(batches)
            for i in range(per_batch)
        ]
        found = store.get_many("spec-det", keys)
        for key in keys:
            writer, batch, index = (int(part) for part in key[1:].split("-"))
            assert found[key] == [writer, batch, index]


class TestCrashTolerance:
    def test_torn_tail_is_skipped_and_reported(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append("spec-det", [make_record("a", 0, "survivor")])
        with (tmp_path / "spec-det.jsonl").open("ab") as handle:
            handle.write(b'{"key": "b' + b"1" * 10)  # crashed mid-append
        with pytest.warns(RuntimeWarning, match="1 malformed"):
            stats = store.stats()
        assert stats["records"] == 1
        assert stats["malformed_lines"] == 1
        assert store.get_many("spec-det", ["a"]) == {"a": "survivor"}

    def test_append_after_crash_repairs_the_tail(self, tmp_path):
        """A campaign completing over a torn store file keeps every
        record parseable, so resubmitting it is a pure cache hit."""
        spec = _spec(seeds=(0, 1), scenario=BrakeScenario(n_frames=20))
        path = tmp_path / f"{spec.store_name()}.jsonl"
        path.write_bytes(b'{"key": "torn...')
        client = LocalClient(Coordinator(ResultStore(tmp_path)))
        with pytest.warns(RuntimeWarning):
            status = client.submit(spec)
        assert status["pending"] == len(spec.seeds)
        assert Worker(client).run(max_jobs=status["jobs"]) == status["jobs"]
        # the torn line is terminated, not merged into the next record
        assert len(path.read_bytes().splitlines()) == 1 + len(spec.seeds)
        again = Coordinator(ResultStore(tmp_path))
        with pytest.warns(RuntimeWarning):
            status = again.submit(spec)
        assert status["pending"] == 0
        assert status["cached"] == len(spec.seeds)
