"""Tests for ``repro.obs`` — the physical-time observability subsystem.

Covers the metrics registry and cross-seed aggregation, the event bus
and Perfetto export (including the shape validator CI uses), the
unified drop accounting (switch drops and socket rx overflows mirror
into registry counters), the CLI subcommands, and the headline
invariant: enabling full observability leaves every logical trace
fingerprint byte-identical — for plain seeded runs *and* for replayed
exploration schedules.
"""

import json

import pytest

from repro import obs
from repro.harness import ScenarioSpec, flow_summary, observe_run, run_scenario_spec
from repro.obs import context as obs_context
from repro.obs.metrics import (
    DEPTH_BUCKETS,
    Histogram,
    MetricsRegistry,
    aggregate_snapshots,
    percentile,
)


class TestMetricsPrimitives:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("hits") is counter

    def test_gauge_tracks_peak(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        for value in (3, 7, 2):
            gauge.set(value)
        assert gauge.value == 2
        assert gauge.peak == 7
        assert gauge.samples == 3

    def test_histogram_buckets_and_stats(self):
        histogram = Histogram("lat", bounds=(10, 100, 1000))
        for value in (5, 50, 500, 5000):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1, 1]  # one overflow
        assert histogram.count == 4
        assert histogram.min == 5
        assert histogram.max == 5000
        assert histogram.mean == pytest.approx(5555 / 4)

    def test_histogram_quantile_upper_edge_clamped_to_max(self):
        histogram = Histogram("lat", bounds=(10, 100, 1000))
        histogram.observe(40)
        histogram.observe(60)
        # Both samples land in the (10, 100] bucket; the estimate is the
        # bucket edge clamped to the observed maximum.
        assert histogram.quantile(0.5) == 60
        assert histogram.quantile(1.0) == 60
        assert Histogram("empty").quantile(0.5) == 0

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(100, 10))

    def test_registry_kind_collision(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(4)
        registry.histogram("h", DEPTH_BUCKETS).observe(3)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 1}
        assert snapshot["gauges"]["g"]["peak"] == 4
        entry = snapshot["histograms"]["h"]
        assert entry["count"] == 1
        assert entry["bounds"] == list(DEPTH_BUCKETS)
        assert sum(entry["counts"]) == 1
        json.dumps(snapshot)  # must be JSON-able as-is

    def test_percentile_nearest_rank(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile(values, 0.0) == 1
        assert percentile(values, 0.5) in (5, 6)  # nearest rank, ties either way
        assert percentile(values, 1.0) == 10
        assert percentile([], 0.5) == 0
        with pytest.raises(ValueError):
            percentile(values, 1.5)


class TestAggregation:
    def _snapshot(self, count):
        registry = MetricsRegistry()
        counter = registry.counter("frames")
        counter.inc(count)
        registry.gauge("depth").set(count)
        histogram = registry.histogram("lat", bounds=(10, 100))
        for _ in range(count):
            histogram.observe(50)
        return registry.snapshot()

    def test_counters_and_gauges_across_seeds(self):
        snapshots = [self._snapshot(count) for count in range(1, 12)]
        aggregate = aggregate_snapshots(snapshots)
        assert aggregate["seeds"] == 11
        frames = aggregate["counters"]["frames"]
        assert frames["total"] == sum(range(1, 12))
        assert frames["max"] == 11
        assert frames["p50"] == 6
        assert aggregate["gauges"]["depth"]["peak_max"] == 11

    def test_histograms_merge_exactly(self):
        snapshots = [self._snapshot(count) for count in range(1, 12)]
        aggregate = aggregate_snapshots(snapshots)
        merged = aggregate["histograms"]["lat"]
        assert merged["count"] == sum(range(1, 12))
        assert merged["counts"][1] == merged["count"]  # all in (10, 100]
        assert merged["seeds_observed"] == 11
        assert merged["p50"] == 50  # edge estimate clamped to max

    def test_missing_metric_counts_as_zero(self):
        with_metric = self._snapshot(4)
        empty = MetricsRegistry().snapshot()
        aggregate = aggregate_snapshots([with_metric, empty])
        assert aggregate["counters"]["frames"]["total"] == 4
        assert aggregate["counters"]["frames"]["p50"] in (0, 4)

    def test_incompatible_bounds_refuse_to_merge(self):
        left = MetricsRegistry()
        left.histogram("h", bounds=(10, 100)).observe(1)
        right = MetricsRegistry()
        right.histogram("h", bounds=(10, 200)).observe(1)
        with pytest.raises(ValueError):
            aggregate_snapshots([left.snapshot(), right.snapshot()])


class TestContextAndBus:
    def test_disabled_by_default(self):
        assert obs_context.ACTIVE is None

    def test_capture_installs_and_restores(self):
        before = obs_context.ACTIVE
        with obs.capture() as observation:
            assert obs_context.ACTIVE is observation
            with obs.capture() as inner:
                assert obs_context.ACTIVE is inner
            assert obs_context.ACTIVE is observation
        assert obs_context.ACTIVE is before

    def test_capture_restores_on_error(self):
        before = obs_context.ACTIVE
        with pytest.raises(RuntimeError):
            with obs.capture():
                raise RuntimeError("boom")
        assert obs_context.ACTIVE is before

    def test_span_clamps_negative_duration(self):
        bus = obs.EventBus()
        bus.span("t", "s", 100, 40)
        event = bus.events[0]
        assert event.ts == 40 and event.dur == 0

    def test_tracks_sorted_and_by_track(self):
        bus = obs.EventBus()
        bus.instant("zeta", "a", 1)
        bus.span("alpha", "b", 2, 3)
        assert bus.tracks() == ["alpha", "zeta"]
        assert [event.name for event in bus.by_track("zeta")] == ["a"]
        assert len(bus) == 2


class TestExport:
    def _observation(self):
        observation = obs.Observation()
        observation.bus.span("net", "a->b", 1_000, 3_000, bytes=64)
        observation.bus.instant("net", "drop", 2_000)
        observation.bus.span("sched", "dispatch", 500, 500)
        observation.metrics.counter("net.frames_sent").inc(2)
        return observation

    def test_trace_events_shape(self):
        events = obs.trace_events(self._observation())
        metadata = [event for event in events if event["ph"] == "M"]
        # One process_name + one thread_name per track.
        assert len(metadata) == 3
        names = {m["args"]["name"] for m in metadata}
        assert {"repro", "net", "sched"} == names
        spans = [event for event in events if event["ph"] == "X"]
        assert all(event["dur"] >= 0 for event in spans)
        assert all("wall_ns" in event["args"] for event in spans)
        assert obs.validate_trace_data(events) == []

    def test_write_trace_and_validate_roundtrip(self, tmp_path):
        path = obs.write_trace(self._observation(), tmp_path / "trace.json")
        data = json.loads(path.read_text())
        assert obs.validate_trace_data(data) == []
        assert data["otherData"]["tracks"] == ["net", "sched"]

    def test_validator_rejects_malformed(self):
        assert obs.validate_trace_data(42) != []
        assert obs.validate_trace_data({"nope": []}) != []
        assert obs.validate_trace_data([{"ph": "Q", "name": "x"}]) != []
        assert obs.validate_trace_data([{"ph": "X", "name": "x"}]) != []
        bad_dur = [{"ph": "X", "name": "x", "ts": 1, "dur": -5, "pid": 1, "tid": 1}]
        assert any("dur" in problem for problem in obs.validate_trace_data(bad_dur))
        backwards = [
            {"ph": "i", "name": "a", "ts": 10, "pid": 1, "tid": 1},
            {"ph": "i", "name": "b", "ts": 5, "pid": 1, "tid": 1},
        ]
        assert any(
            "backwards" in problem for problem in obs.validate_trace_data(backwards)
        )

    def test_metrics_document(self, tmp_path):
        path = obs.write_metrics(self._observation(), tmp_path / "metrics.json")
        document = json.loads(path.read_text())
        assert document["format"] == "repro-metrics/v1"
        assert document["metrics"]["counters"]["net.frames_sent"] == 2


class TestDropAccountingUnification:
    """Satellite: legacy int counters == registry counters, both paths."""

    def _make_net(self, seed=0, config=None):
        from repro.network import NetworkInterface, Switch
        from repro.sim import World
        from repro.sim.platform import CALM

        world = World(seed)
        a = world.add_platform("a", CALM)
        b = world.add_platform("b", CALM)
        switch = Switch(world.sim, world.rng.stream("net"), config)
        world.attach_network(switch)
        return world, NetworkInterface(a, switch), NetworkInterface(b, switch)

    def test_switch_drop_probability_path(self):
        from repro.network import SwitchConfig
        from repro.time import MS

        config = SwitchConfig(drop_probability=1.0)
        world, nic_a, nic_b = self._make_net(config=config)
        src = nic_a.bind(1000)
        nic_b.bind(2000)
        with obs.capture() as observation:
            for _ in range(7):
                src.send("b", 2000, payload=b"x", size_bytes=8)
            world.run_for(10 * MS)
        switch = world.network
        assert switch.frames_dropped == 7
        assert observation.metrics.counter("net.frames_dropped").value == 7
        assert observation.metrics.counter("net.frames_sent").value == 7
        drops = [
            event
            for event in observation.bus.by_track("network")
            if event.name.startswith("drop ")
        ]
        assert len(drops) == 7

    def test_socket_rx_overflow_path(self):
        from repro.time import MS

        world, nic_a, nic_b = self._make_net()
        src = nic_a.bind(1000)
        dst = nic_b.bind(2000, rx_capacity=2)
        with obs.capture() as observation:
            for _ in range(6):
                src.send("b", 2000, payload=b"x", size_bytes=8)
            world.run_for(100 * MS)
        # Nobody reads the rx queue, so 4 of 6 frames overflow.
        assert dst.rx_dropped == 4
        assert dst.rx.dropped == 4
        assert observation.metrics.counter("net.socket_rx_dropped").value == 4
        assert observation.metrics.counter("queue.dropped").value == 4
        overflow = [
            event
            for event in observation.bus.by_track("network")
            if event.name.startswith("rx-overflow ")
        ]
        assert len(overflow) == 4

    def test_disabled_run_still_counts_legacy_attributes(self):
        from repro.time import MS

        world, nic_a, nic_b = self._make_net()
        src = nic_a.bind(1000)
        dst = nic_b.bind(2000, rx_capacity=1)
        for _ in range(3):
            src.send("b", 2000, payload=b"x", size_bytes=8)
        world.run_for(100 * MS)
        assert dst.rx_dropped == 2
        assert dst.rx.dropped == 2


class TestZeroPerturbation:
    """Headline invariant: obs on/off => byte-identical fingerprints."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_det_brake_fingerprints_identical(self, seed):
        from repro.apps.brake.det import run_det_brake_assistant
        from repro.explore import calibration_scenario

        scenario = calibration_scenario(20, deterministic_camera=True)
        baseline = run_det_brake_assistant(seed, scenario)
        with obs.capture() as observation:
            observed = run_det_brake_assistant(seed, scenario)
        assert dict(baseline.trace_fingerprints) == dict(
            observed.trace_fingerprints
        )
        assert len(observation.bus) > 0  # the run really was observed

    def test_nondet_brake_fingerprints_identical(self):
        from repro.apps.brake.nondet import run_nondet_brake_assistant
        from repro.explore import calibration_scenario

        scenario = calibration_scenario(20)
        baseline = run_nondet_brake_assistant(3, scenario)
        with obs.capture():
            observed = run_nondet_brake_assistant(3, scenario)
        assert dict(baseline.trace_fingerprints) == dict(
            observed.trace_fingerprints
        )

    def test_replayed_schedule_fingerprints_identical(self):
        """Obs must not perturb a replayed exploration schedule either."""
        from repro.apps.brake.det import run_det_brake_assistant
        from repro.explore import (
            IN_BUDGET_PREEMPT_NS,
            PctStrategy,
            calibration_scenario,
        )
        from repro.sim.rng import stream_hooks

        scenario = calibration_scenario(15, deterministic_camera=True)
        strategy = PctStrategy(depth=4, preempt_ns=IN_BUDGET_PREEMPT_NS, seed=5)
        schedule = strategy.schedule_for(1, base_seed=0, horizon=400)
        assert schedule.preemptions  # the schedule actually intervenes

        with stream_hooks(schedule.controller(exclude=("camera",))):
            baseline = run_det_brake_assistant(0, scenario)
        with obs.capture() as observation:
            with stream_hooks(schedule.controller(exclude=("camera",))):
                observed = run_det_brake_assistant(0, scenario)
        assert dict(baseline.trace_fingerprints) == dict(
            observed.trace_fingerprints
        )
        assert len(observation.bus) > 0


class TestAcceptance:
    """ISSUE acceptance: 4+ tracks in the brake trace; 10+ seed merge."""

    def test_brake_trace_has_four_tracks(self, tmp_path):
        from repro.explore import calibration_scenario

        scenario = calibration_scenario(20, deterministic_camera=True)
        observation, _ = observe_run(
            0, ScenarioSpec(variant="det", scenario=scenario)
        )
        assert set(observation.bus.tracks()) >= {
            "scheduler",
            "reactors",
            "dear",
            "network",
        }
        path = obs.write_trace(observation, tmp_path / "trace.json")
        data = json.loads(path.read_text())
        assert obs.validate_trace_data(data) == []
        assert len(data["otherData"]["tracks"]) >= 4

    def test_histogram_aggregated_across_ten_sweep_seeds(self, tmp_path):
        from functools import partial

        from repro.explore import calibration_scenario
        from repro.harness.sweep import SweepRunner

        scenario = calibration_scenario(10, deterministic_camera=True)
        spec = ScenarioSpec(variant="det", scenario=scenario, observe=True)
        sweep = SweepRunner(workers=2, use_cache=False)
        runs = sweep.map(
            partial(run_scenario_spec, spec=spec),
            range(10),
            name="test-obs-sweep",
        )
        assert len(runs) == 10
        aggregate = obs.aggregate_snapshots(
            [run.fault_summary["metrics"] for run in runs]
        )
        assert aggregate["seeds"] == 10
        lag = aggregate["histograms"]["reactor.lag_ns"]
        assert lag["seeds_observed"] == 10
        assert lag["count"] > 0
        assert lag["p95"] >= lag["p50"] >= 0

    def test_observed_drivers_are_picklable(self):
        import pickle
        from functools import partial

        spec = ScenarioSpec(variant="det", observe=True)
        pickle.dumps(partial(run_scenario_spec, spec=spec))
        pickle.dumps(partial(flow_summary, spec=spec))


class TestCli:
    def test_trace_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "trace", "det",
            "--frames", "10",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        data = json.loads(trace_path.read_text())
        assert obs.validate_trace_data(data) == []
        document = json.loads(metrics_path.read_text())
        assert document["format"] == "repro-metrics/v1"
        out = capsys.readouterr().out
        assert "trace:" in out

    def test_metrics_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "agg.json"
        code = main([
            "metrics", "det",
            "--seeds", "3",
            "--frames", "10",
            "--workers", "1",
            "--no-cache",
            "--metrics-out", str(out_path),
        ])
        assert code == 0
        document = json.loads(out_path.read_text())
        assert document["format"] == "repro-metrics-aggregate/v1"
        assert document["aggregate"]["seeds"] == 3
        assert document["aggregate"]["histograms"]
        out = capsys.readouterr().out
        assert "OBS" in out

    def test_metrics_store_keeps_only_the_snapshot(self, tmp_path):
        # Each cached seed of ``repro metrics`` is its metrics snapshot,
        # not the whole run result (commands, trace fingerprints, ...).
        from repro.apps.brake import BrakeScenario
        from repro.cli import main
        from repro.harness.sweep import decode_value

        code = main([
            "metrics", "det",
            "--seeds", "3",
            "--frames", "200",
            "--workers", "1",
            "--cache-dir", str(tmp_path),
        ])
        assert code == 0
        store = tmp_path / "obs-det.jsonl"
        records = [json.loads(line) for line in store.read_text().splitlines()]
        assert sorted(record["seed"] for record in records) == [0, 1, 2]
        spec = ScenarioSpec(variant="det", scenario=BrakeScenario(n_frames=200))
        observation, _ = observe_run(0, spec)
        seed0 = next(record for record in records if record["seed"] == 0)
        value = decode_value(seed0["encoding"], seed0["payload"])
        assert value == {"metrics": observation.metrics.snapshot()}
        # The whole-result records took 39 252 B for these three seeds.
        assert store.stat().st_size < 39252 / 3

    def test_trace_out_on_regular_subcommand(self, tmp_path):
        from repro.cli import main

        trace_path = tmp_path / "det-trace.json"
        code = main([
            "det", "--seeds", "1", "--frames", "10", "--workers", "1",
            "--no-cache", "--trace-out", str(trace_path),
        ])
        assert code == 0
        data = json.loads(trace_path.read_text())
        assert obs.validate_trace_data(data) == []
