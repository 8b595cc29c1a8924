"""Tests for fleet telemetry (``repro.obs.fleet``).

Covers the process-global fleet registry and its null-object guard, the
Prometheus text exposition and its validator, coordinator-stamped job
timelines and the Perfetto fleet trace, worker heartbeat-failure
accounting, concurrent scraping against a live service, the exact
histogram extremes, and the headline invariant inherited from PR 3:
enabling fleet telemetry perturbs **nothing** — every trace fingerprint
and every per-seed result byte stays identical.
"""

import json
import logging
import pickle
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.brake.scenario import BrakeScenario
from repro.faults import FaultPlan
from repro.harness import ScenarioSpec, SweepRunner
from repro.obs import fleet
from repro.obs.export import validate_trace_data, write_trace
from repro.obs.fleet import (
    FleetTelemetry,
    NullFleet,
    fleet_capture,
    fleet_trace_bus,
    fleet_trace_events,
    fleet_trace_labels,
    merge_fleet_documents,
    prometheus_text,
    snapshot_document,
    validate_prometheus_text,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    aggregate_snapshots,
    labeled,
)
from repro.service import (
    Coordinator,
    CoordinatorConfig,
    LocalService,
    Worker,
)
from repro.harness.sweep import ResultStore, encode_value


@pytest.fixture(autouse=True)
def restore_fleet_handle():
    """Tests toggle the process-global handle; always put it back."""
    previous = fleet.ACTIVE
    yield
    fleet.ACTIVE = previous


def make_spec(seeds=(0, 1, 2, 3, 4), variant="det", frames=40, faults=None):
    return ScenarioSpec(
        variant=variant,
        seeds=tuple(seeds),
        scenario=BrakeScenario(n_frames=frames),
        faults=faults,
        label="fleet-test",
    )


def local_reference(spec):
    return SweepRunner(workers=1, use_cache=False).run_spec(spec).values()


def wire_outcomes(seeds, prefix="value"):
    outcomes = []
    for seed in seeds:
        encoding, payload = encode_value(f"{prefix}-{seed}")
        outcomes.append(
            {
                "seed": seed,
                "encoding": encoding,
                "payload": payload,
                "error": None,
                "cached": False,
                "elapsed_s": 0.0,
            }
        )
    return outcomes


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def clocked(tmp_path):
    clock = FakeClock()
    config = CoordinatorConfig(
        chunk_size=2,
        max_attempts=3,
        lease_ttl_s=5.0,
        job_timeout_s=60.0,
        retry_backoff_s=1.0,
    )
    return Coordinator(ResultStore(tmp_path), config, clock=clock), clock


# ---------------------------------------------------------------------------
# Histogram extremes: quantile(0.0)/quantile(1.0) are exact, merge included.
# ---------------------------------------------------------------------------


class TestHistogramExtremes:
    def test_quantile_0_and_1_are_exact_observations(self):
        h = Histogram("lag", bounds=(10, 100, 1000))
        for value in (3, 47, 252):
            h.observe(value)
        assert h.quantile(0.0) == 3  # not bucket edge 10
        assert h.quantile(1.0) == 252  # not bucket edge 1000

    def test_interior_quantiles_stay_bucket_estimates(self):
        h = Histogram("lag", bounds=(10, 100, 1000))
        for value in (3, 47, 252):
            h.observe(value)
        # p50 lands in the (10, 100] bucket: edge estimate, but never
        # beyond the observed maximum.
        assert h.quantile(0.5) == 100
        assert h.quantile(0.95) <= h.max

    def test_single_sample_every_quantile_is_that_sample(self):
        h = Histogram("lag", bounds=(1000, 2000))
        h.observe(3)
        assert h.quantile(0.0) == 3
        assert h.quantile(1.0) == 3
        # Even interior estimates clamp to the observed max.
        assert h.quantile(0.5) == 3

    def test_empty_histogram_quantiles_are_zero(self):
        h = Histogram("lag", bounds=(10, 100))
        assert h.quantile(0.0) == 0
        assert h.quantile(1.0) == 0

    def test_quantile_out_of_range_raises(self):
        h = Histogram("lag", bounds=(10,))
        h.observe(5)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_overflow_bucket_p100_is_exact_max(self):
        h = Histogram("lag", bounds=(10,))
        h.observe(123456)
        assert h.quantile(1.0) == 123456

    def test_snapshot_carries_exact_extremes(self):
        registry = MetricsRegistry()
        h = registry.histogram("lag", bounds=(10, 100))
        h.observe(7)
        h.observe(42)
        entry = registry.snapshot()["histograms"]["lag"]
        assert entry["min"] == 7
        assert entry["max"] == 42

    def test_merged_histograms_keep_exact_extremes(self):
        def snap(values):
            registry = MetricsRegistry()
            h = registry.histogram("lag", bounds=(10, 100, 1000))
            for value in values:
                h.observe(value)
            return registry.snapshot()

        merged = aggregate_snapshots([snap([3, 47]), snap([252, 9])])
        entry = merged["histograms"]["lag"]
        assert entry["min"] == 3
        assert entry["max"] == 252
        assert entry["count"] == 4
        # Merged interior quantiles never exceed the merged maximum.
        assert entry["p95"] <= 252


# ---------------------------------------------------------------------------
# The registry handle: enable/disable, the guard, env policy.
# ---------------------------------------------------------------------------


class TestFleetHandle:
    def test_disabled_by_default_and_null_snapshot_is_empty(self):
        assert isinstance(fleet.ACTIVE, (NullFleet, FleetTelemetry))
        null = NullFleet()
        assert not null.enabled
        snap = null.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_fleet_capture_installs_and_restores(self):
        before = fleet.ACTIVE
        with fleet_capture() as f:
            assert fleet.ACTIVE is f
            assert f.enabled
            f.inc("fleet.test.counter")
            assert f.counter_value("fleet.test.counter") == 1
        assert fleet.ACTIVE is before

    def test_enable_is_idempotent_unless_fresh(self):
        with fleet_capture():
            first = fleet.enable()
            first.inc("fleet.test.kept")
            again = fleet.enable()
            assert again is first
            assert again.counter_value("fleet.test.kept") == 1
            fresh = fleet.enable(fresh=True)
            assert fresh is not first
            assert fresh.counter_value("fleet.test.kept") == 0

    def test_disable_restores_null_handle(self):
        with fleet_capture():
            fleet.disable()
            assert not fleet.ACTIVE.enabled

    def test_guarded_site_records_nothing_when_disabled(self):
        with fleet_capture() as f:
            fleet.disable()
            g = fleet.ACTIVE
            if g.enabled:  # the instrumentation-site idiom
                g.inc("fleet.test.never")
            assert f.counter_value("fleet.test.never") == 0

    def test_observe_and_gauge(self):
        with fleet_capture() as f:
            f.observe("fleet.test.latency_ns", 5_000)
            f.set_gauge("fleet.test.depth", 3)
            f.set_gauge("fleet.test.depth", 1)
            snap = f.snapshot()
            assert snap["histograms"]["fleet.test.latency_ns"]["count"] == 1
            assert snap["gauges"]["fleet.test.depth"]["value"] == 1
            assert snap["gauges"]["fleet.test.depth"]["peak"] == 3

    @pytest.mark.parametrize(
        "value,expected",
        [
            ("0", False),
            ("no", False),
            ("off", False),
            ("False", False),
            ("1", True),
            ("yes", True),
            ("", True),
        ],
    )
    def test_enabled_by_env_values(self, value, expected):
        assert fleet.enabled_by_env({fleet.FLEET_ENV: value}) is expected

    def test_enabled_by_env_default_is_yes(self):
        assert fleet.enabled_by_env({}) is True

    def test_enabled_by_env_explicit_mapping_ignores_process_env(self, monkeypatch):
        # An empty mapping is still the mapping to read, not a cue to
        # fall back to os.environ.
        monkeypatch.setenv(fleet.FLEET_ENV, "0")
        assert fleet.enabled_by_env({}) is True
        assert fleet.enabled_by_env() is False

    def test_enable_from_env_respects_optout(self, monkeypatch):
        with fleet_capture():
            fleet.disable()
            monkeypatch.setenv(fleet.FLEET_ENV, "0")
            handle = fleet.enable_from_env()
            assert not handle.enabled
            monkeypatch.setenv(fleet.FLEET_ENV, "1")
            handle = fleet.enable_from_env()
            assert handle.enabled

    def test_snapshot_document_shape(self):
        with fleet_capture() as f:
            f.inc("fleet.test.n", 4)
            doc = snapshot_document()
            assert doc["format"] == fleet.FLEET_FORMAT
            assert doc["enabled"] is True
            assert doc["metrics"]["counters"]["fleet.test.n"] == 4
            assert isinstance(doc["pid"], int)

    def test_merge_fleet_documents_sums_counters(self):
        def doc(n):
            registry = MetricsRegistry()
            registry.counter("fleet.test.n").inc(n)
            return {
                "format": fleet.FLEET_FORMAT,
                "metrics": registry.snapshot(),
            }

        merged = merge_fleet_documents([doc(2), None, doc(5)])
        assert merged["sources"] == 2
        assert merged["merged"]["counters"]["fleet.test.n"]["total"] == 7


# ---------------------------------------------------------------------------
# Prometheus exposition + validator.
# ---------------------------------------------------------------------------


class TestPrometheusText:
    def sample_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("fleet.coordinator.jobs_completed").inc(3)
        registry.counter(
            labeled("fleet.store.ops", op="get", result="hit")
        ).inc(7)
        registry.gauge("fleet.coordinator.queue_depth").set(5)
        h = registry.histogram("fleet.worker.job_wall_ns", bounds=(10, 100))
        for value in (5, 50, 500):
            h.observe(value)
        return registry.snapshot()

    def test_renders_and_validates(self):
        text = prometheus_text(self.sample_snapshot())
        assert validate_prometheus_text(text) == []
        assert "# TYPE fleet_coordinator_jobs_completed counter" in text
        assert "fleet_coordinator_jobs_completed 3" in text

    def test_labeled_names_become_real_labels(self):
        text = prometheus_text(self.sample_snapshot())
        assert 'fleet_store_ops{op="get",result="hit"} 7' in text

    def test_gauge_emits_value_and_peak(self):
        text = prometheus_text(self.sample_snapshot())
        assert "fleet_coordinator_queue_depth 5" in text
        assert "fleet_coordinator_queue_depth_peak 5" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = prometheus_text(self.sample_snapshot())
        lines = [
            line
            for line in text.splitlines()
            if line.startswith("fleet_worker_job_wall_ns_bucket")
        ]
        assert lines == [
            'fleet_worker_job_wall_ns_bucket{le="10"} 1',
            'fleet_worker_job_wall_ns_bucket{le="100"} 2',
            'fleet_worker_job_wall_ns_bucket{le="+Inf"} 3',
        ]
        assert "fleet_worker_job_wall_ns_count 3" in text
        assert "fleet_worker_job_wall_ns_sum 555" in text

    def test_dots_sanitized_out_of_family_names(self):
        text = prometheus_text(self.sample_snapshot())
        assert "fleet.coordinator" not in text

    def test_empty_snapshot_renders_empty_exposition(self):
        text = prometheus_text(MetricsRegistry().snapshot())
        assert validate_prometheus_text(text) == []

    def test_active_handle_is_the_default_snapshot(self):
        with fleet_capture() as f:
            f.inc("fleet.test.live", 2)
            assert "fleet_test_live 2" in prometheus_text()

    def test_validator_flags_duplicate_series(self):
        problems = validate_prometheus_text("a_metric 1\na_metric 2\n")
        assert any("duplicate" in p for p in problems)

    def test_validator_flags_non_cumulative_buckets(self):
        text = (
            'm_bucket{le="10"} 5\n'
            'm_bucket{le="100"} 3\n'
        )
        problems = validate_prometheus_text(text)
        assert any("not cumulative" in p for p in problems)

    def test_validator_flags_bad_type_and_garbage(self):
        problems = validate_prometheus_text("# TYPE foo banana\n")
        assert any("TYPE" in p for p in problems)
        problems = validate_prometheus_text("!!! not a sample\n")
        assert any("unparseable" in p for p in problems)
        problems = validate_prometheus_text("a_metric one\n")
        assert any("non-numeric" in p for p in problems)


# ---------------------------------------------------------------------------
# Coordinator instrumentation: counters, timelines, the fleet block.
# ---------------------------------------------------------------------------


class TestCoordinatorTelemetry:
    def test_happy_path_timeline_and_counters(self, clocked):
        coordinator, clock = clocked
        with fleet_capture() as f:
            status = coordinator.submit(make_spec(seeds=(0, 1)))
            assert f.counter_value("fleet.coordinator.campaigns_submitted") == 1
            assert f.counter_value("fleet.coordinator.jobs_created") == 1
            assert (
                f.snapshot()["gauges"]["fleet.coordinator.queue_depth"]["value"]
                == 1
            )
            worker = coordinator.register()
            clock.advance(0.5)
            job = coordinator.lease(worker)
            clock.advance(2.0)
            coordinator.complete(
                worker,
                job["job"],
                wire_outcomes([0, 1]),
                exec_info={"wall_s": 2.0, "heartbeat_failures": 0},
            )
            assert f.counter_value("fleet.coordinator.leases") == 1
            assert f.counter_value("fleet.coordinator.jobs_completed") == 1
            snap = f.snapshot()
            assert (
                snap["gauges"]["fleet.coordinator.queue_depth"]["value"] == 0
            )
            lease_hist = snap["histograms"][
                "fleet.coordinator.lease_latency_ns"
            ]
            assert lease_hist["count"] == 1
            assert lease_hist["max"] == pytest.approx(0.5e9)
            duration = snap["histograms"]["fleet.coordinator.job_duration_ns"]
            assert duration["max"] == pytest.approx(2.0e9)

        report = coordinator.report(status["campaign"])
        (described,) = report["jobs"]
        events = [event["event"] for event in described["timeline"]]
        assert events == ["queued", "leased", "done"]
        assert described["exec"]["wall_s"] == 2.0
        assert report["submitted_at"] == 1000.0

    def test_worker_death_stamps_requeue_and_counts(self, clocked):
        coordinator, clock = clocked
        with fleet_capture() as f:
            coordinator.submit(make_spec(seeds=(0, 1)))
            w1, w2 = coordinator.register(), coordinator.register()
            job = coordinator.lease(w1)
            clock.advance(5.1)  # TTL 5.0 passes with no heartbeat
            assert coordinator.lease(w2) is None  # reaped, backoff pending
            clock.advance(1.1)  # retry_backoff_s elapsed
            retried = coordinator.lease(w2)
            assert retried["job"] == job["job"]
            assert f.counter_value("fleet.coordinator.worker_deaths") == 1
            assert f.counter_value("fleet.coordinator.requeues") == 1
            # The dead worker's late report is stale.
            reply = coordinator.complete(w1, job["job"], wire_outcomes([0, 1]))
            assert not reply["ok"]
            assert f.counter_value("fleet.coordinator.stale_reports") == 1
        timeline = coordinator._jobs[job["job"]].timeline
        kinds = [event["event"] for event in timeline]
        assert kinds == ["queued", "leased", "requeued", "leased"]
        assert "lease expired" in timeline[2]["reason"]

    def test_reported_failure_counts_retry(self, clocked):
        coordinator, clock = clocked
        with fleet_capture() as f:
            coordinator.submit(make_spec(seeds=(0, 1)))
            worker = coordinator.register()
            job = coordinator.lease(worker)
            coordinator.fail(worker, job["job"], "boom")
            assert f.counter_value("fleet.coordinator.retries") == 1
        timeline = coordinator._jobs[job["job"]].timeline
        assert timeline[-1]["event"] == "requeued"
        assert timeline[-1]["reason"] == "boom"

    def test_terminal_failure_stamps_failed(self, clocked):
        coordinator, clock = clocked
        with fleet_capture() as f:
            status = coordinator.submit(make_spec(seeds=(0, 1)))
            worker = coordinator.register()
            for attempt in range(3):  # max_attempts=3
                clock.advance(10.0)  # clear any requeue backoff
                job = coordinator.lease(worker)
                assert job is not None
                coordinator.fail(worker, job["job"], f"boom {attempt}")
            assert f.counter_value("fleet.coordinator.jobs_failed") == 1
        timeline = coordinator._jobs[job["job"]].timeline
        assert timeline[-1]["event"] == "failed"
        assert coordinator.status(status["campaign"])["status"] == "done"

    def test_cache_hits_count_as_seeds_cached(self, clocked, tmp_path):
        coordinator, _ = clocked
        spec = make_spec(seeds=(0, 1))
        with fleet_capture() as f:
            status = coordinator.submit(spec)
            worker = coordinator.register()
            job = coordinator.lease(worker)
            outcomes = [
                {
                    "seed": seed,
                    "encoding": encoding,
                    "payload": payload,
                    "error": None,
                    "cached": False,
                    "elapsed_s": 0.0,
                }
                for seed in job["seeds"]
                for encoding, payload in [encode_value(f"v-{seed}")]
            ]
            coordinator.complete(worker, job["job"], outcomes)
            # Resubmit: every seed is now a store hit.
            coordinator.submit(spec)
            assert f.counter_value("fleet.coordinator.seeds_cached") == 2

    def test_status_reports_rates_and_eta(self, clocked):
        coordinator, clock = clocked
        status = coordinator.submit(make_spec(seeds=(0, 1, 2, 3)))
        campaign = status["campaign"]
        assert status["queue_depth"] == 2
        assert status["leased"] == 0
        assert status["eta_s"] is None  # nothing computed yet: no rate
        worker = coordinator.register()
        job = coordinator.lease(worker)
        clock.advance(2.0)
        coordinator.complete(worker, job["job"], wire_outcomes(job["seeds"]))
        mid = coordinator.status(campaign)
        assert mid["seeds_per_s"] == pytest.approx(1.0)
        assert mid["eta_s"] == pytest.approx(2.0)
        job = coordinator.lease(worker)
        clock.advance(2.0)
        coordinator.complete(worker, job["job"], wire_outcomes(job["seeds"]))
        done = coordinator.status(campaign)
        assert done["status"] == "done"
        assert done["eta_s"] == 0.0
        assert done["elapsed_s"] == pytest.approx(4.0)

    def test_report_embeds_merged_fleet_block(self, clocked):
        coordinator, clock = clocked
        with fleet_capture() as f:
            status = coordinator.submit(make_spec(seeds=(0, 1)))
            worker = coordinator.register()
            job = coordinator.lease(worker)
            worker_registry = MetricsRegistry()
            worker_registry.counter("fleet.worker.jobs_executed").inc()
            telemetry = {
                "format": fleet.FLEET_FORMAT,
                "host": "remote-host",
                "pid": 4242,
                "enabled": True,
                "metrics": worker_registry.snapshot(),
            }
            coordinator.complete(
                worker, job["job"], wire_outcomes([0, 1]), telemetry=telemetry
            )
            block = coordinator.report(status["campaign"])["fleet"]
            assert block["format"] == fleet.FLEET_FORMAT
            assert block["sources"] == 2  # coordinator + one worker
            assert block["workers"][worker]["host"] == "remote-host"
            merged = block["merged"]
            assert (
                merged["counters"]["fleet.worker.jobs_executed"]["total"] == 1
            )
            assert (
                merged["counters"]["fleet.coordinator.jobs_completed"]["total"]
                == 1
            )

    def test_stale_report_still_updates_worker_telemetry(self, clocked):
        coordinator, clock = clocked
        with fleet_capture():
            status = coordinator.submit(make_spec(seeds=(0, 1)))
            w1, w2 = coordinator.register(), coordinator.register()
            job = coordinator.lease(w1)
            clock.advance(6.2)
            coordinator.lease(w2)
            telemetry = {
                "format": fleet.FLEET_FORMAT,
                "metrics": MetricsRegistry().snapshot(),
            }
            reply = coordinator.complete(
                w1, job["job"], wire_outcomes([0, 1]), telemetry=telemetry
            )
            assert not reply["ok"]
            block = coordinator.report(status["campaign"])["fleet"]
            assert w1 in block["workers"]  # last words of a dying worker


# ---------------------------------------------------------------------------
# The fleet trace.
# ---------------------------------------------------------------------------


class TestFleetTrace:
    def run_campaign(self, coordinator, clock, with_requeue=False):
        status = coordinator.submit(make_spec(seeds=(0, 1, 2)))
        w1, w2 = coordinator.register(), coordinator.register()
        clock.advance(0.1)
        first = coordinator.lease(w1)
        if with_requeue:
            clock.advance(5.1)  # w1 dies: TTL passes without a heartbeat
            second = coordinator.lease(w2)  # w2 gets the *other* job
            clock.advance(1.1)  # backoff elapsed: the orphan is runnable
            retried = coordinator.lease(w2)
            assert retried["job"] == first["job"]
            clock.advance(1.0)
            coordinator.complete(
                w2,
                retried["job"],
                wire_outcomes(retried["seeds"]),
                exec_info={"wall_s": 1.0, "heartbeat_failures": 0},
            )
            clock.advance(0.5)
            coordinator.complete(
                w2, second["job"], wire_outcomes(second["seeds"])
            )
            return coordinator.report(status["campaign"])
        clock.advance(1.0)
        coordinator.complete(
            w1,
            first["job"],
            wire_outcomes(first["seeds"]),
            exec_info={"wall_s": 1.0, "heartbeat_failures": 0},
        )
        second = coordinator.lease(w2)
        clock.advance(0.5)
        coordinator.complete(w2, second["job"], wire_outcomes(second["seeds"]))
        return coordinator.report(status["campaign"])

    def test_trace_validates_and_has_tracks(self, clocked):
        coordinator, clock = clocked
        report = self.run_campaign(coordinator, clock)
        events = fleet_trace_events(report)
        assert validate_trace_data(events) == []
        names = {
            event["args"]["name"]
            for event in events
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert "coordinator queue" in names
        assert any(name.startswith("worker ") for name in names)

    def test_pending_spans_on_queue_track(self, clocked):
        coordinator, clock = clocked
        report = self.run_campaign(coordinator, clock)
        queue_spans = [
            event
            for event in fleet_trace_events(report)
            if event["ph"] == "X" and event["name"].endswith("pending")
        ]
        assert len(queue_spans) == 2  # one per job
        assert all(event["tid"] == 1 for event in queue_spans)
        # First job waited 0.1 s from submission to its lease.
        assert queue_spans[0]["dur"] == pytest.approx(0.1e6)

    def test_worker_spans_carry_attempt_and_exec(self, clocked):
        coordinator, clock = clocked
        report = self.run_campaign(coordinator, clock)
        attempts = [
            event
            for event in fleet_trace_events(report)
            if event["ph"] == "X" and "attempt" in event["name"]
        ]
        assert len(attempts) == 2
        done = [e for e in attempts if e["args"].get("exec")]
        assert done and done[0]["args"]["exec"]["wall_s"] == 1.0
        assert done[0]["dur"] == pytest.approx(1.0e6)

    def test_requeue_emits_instant_and_second_attempt(self, clocked):
        coordinator, clock = clocked
        report = self.run_campaign(coordinator, clock, with_requeue=True)
        events = fleet_trace_events(report)
        assert validate_trace_data(events) == []
        requeues = [e for e in events if e["name"].startswith("requeue ")]
        assert len(requeues) == 1
        assert requeues[0]["ph"] == "i"
        attempts = [
            e["args"]["attempt"]
            for e in events
            if e["ph"] == "X" and "attempt" in e["name"]
        ]
        assert 2 in attempts  # the re-lease ran as attempt 2

    def test_unfinished_job_renders_as_instants(self, clocked):
        coordinator, clock = clocked
        status = coordinator.submit(make_spec(seeds=(0, 1, 2)))
        worker = coordinator.register()
        coordinator.lease(worker)  # leased, never completed
        events = fleet_trace_events(coordinator.report(status["campaign"]))
        assert validate_trace_data(events) == []
        instants = [e for e in events if e["ph"] == "i"]
        # One executing instant (open lease) + one pending instant.
        assert {e["name"].split()[-1] for e in instants} == {
            "executing",
            "pending",
        }

    def test_write_fleet_trace_file(self, clocked, tmp_path):
        coordinator, clock = clocked
        report = self.run_campaign(coordinator, clock)
        path = write_trace(
            fleet_trace_bus(report),
            tmp_path / "fleet-trace.json",
            **fleet_trace_labels(report),
        )
        document = json.loads(path.read_text())
        assert validate_trace_data(document) == []
        assert document["otherData"]["campaign"] == report["campaign"]

    def test_empty_report_still_validates(self):
        events = fleet_trace_events({"campaign": "c0", "jobs": []})
        assert validate_trace_data(events) == []


# ---------------------------------------------------------------------------
# Worker heartbeat failures must never be silent (satellite: heartbeat).
# ---------------------------------------------------------------------------


class FlakyHeartbeatClient:
    """A coordinator client whose coordinator 'dies' on heartbeats."""

    def __init__(self):
        self.heartbeats = 0
        self.completed = []

    def register(self, info):
        return "w-test"

    def heartbeat(self, worker_id, job_id):
        self.heartbeats += 1
        raise OSError("connection refused")  # coordinator is gone

    def complete(self, worker_id, job_id, outcomes, exec_info=None, telemetry=None):
        self.completed.append(
            {
                "job": job_id,
                "outcomes": outcomes,
                "exec": exec_info,
                "telemetry": telemetry,
            }
        )
        return {"ok": True}

    def fail(self, worker_id, job_id, error):
        return {"ok": True}


class TestHeartbeatFailures:
    def run_job_with_dead_coordinator(self, caplog):
        client = FlakyHeartbeatClient()

        def slow_execute(job):
            time.sleep(0.15)  # long enough for >= 1 heartbeat tick
            return wire_outcomes(job["seeds"])

        worker = Worker(client, execute=slow_execute, info={"host": "h1"})
        worker.worker_id = "w-test"
        job = {"job": "c1-j0", "seeds": [0, 1], "lease_ttl_s": 0.06}
        with caplog.at_level(logging.WARNING, logger="repro.service.worker"):
            assert worker.run_one(job)
        return client, worker

    def test_failure_is_counted_logged_and_reported(self, caplog):
        with fleet_capture() as f:
            client, worker = self.run_job_with_dead_coordinator(caplog)
            assert worker.heartbeat_failures >= 1
            assert worker.heartbeat_failures == client.heartbeats
            assert (
                f.counter_value("fleet.worker.heartbeat_failures")
                == worker.heartbeat_failures
            )
        warnings = [
            record
            for record in caplog.records
            if record.name == "repro.service.worker"
            and record.levelno == logging.WARNING
        ]
        assert warnings
        assert "heartbeat for job c1-j0 failed" in warnings[0].getMessage()
        # The failure count surfaces in the completion's exec info...
        (completion,) = client.completed
        assert (
            completion["exec"]["heartbeat_failures"]
            == worker.heartbeat_failures
        )
        # ...and in the worker's shipped telemetry document.
        counters = completion["telemetry"]["metrics"]["counters"]
        assert (
            counters["fleet.worker.heartbeat_failures"]
            == worker.heartbeat_failures
        )

    def test_heartbeat_thread_survives_without_fleet(self, caplog):
        # Telemetry off: the counter and log line still work.
        fleet.disable()
        client, worker = self.run_job_with_dead_coordinator(caplog)
        assert worker.heartbeat_failures >= 1
        assert client.completed[0]["telemetry"] is None
        assert any(
            "heartbeat for job" in record.getMessage()
            for record in caplog.records
        )

    def test_exec_info_reaches_the_job_record(self, clocked):
        coordinator, clock = clocked
        status = coordinator.submit(make_spec(seeds=(0, 1)))
        worker = coordinator.register()
        job = coordinator.lease(worker)
        coordinator.complete(
            worker,
            job["job"],
            wire_outcomes([0, 1]),
            exec_info={"wall_s": 0.1, "heartbeat_failures": 3},
        )
        report = coordinator.report(status["campaign"])
        assert report["jobs"][0]["exec"]["heartbeat_failures"] == 3


# ---------------------------------------------------------------------------
# Live service: /metrics under concurrent scraping (satellite: race smoke).
# ---------------------------------------------------------------------------


class TestLiveServiceTelemetry:
    def test_concurrent_metrics_and_status_scrapes(self, tmp_path):
        spec = make_spec(seeds=(0, 1, 2, 3, 4, 5), frames=30)
        problems: list[str] = []
        metric_series: list[list[int]] = [[], []]  # one list per scraper
        status_series: list[int] = []
        stop = threading.Event()

        # Earlier tests may have run campaigns on the process-global
        # handle; start from a zeroed registry so absolute counter
        # values below are meaningful.
        fleet.enable(fresh=True)

        with LocalService(
            tmp_path,
            workers=2,
            config=CoordinatorConfig(chunk_size=2),
        ) as service:
            campaign = service.client.submit(spec)["campaign"]

            def scrape_metrics(into):
                while not stop.is_set():
                    text = service.client.metrics_text()
                    bad = validate_prometheus_text(text)
                    if bad:
                        problems.extend(bad)
                        return
                    for line in text.splitlines():
                        if line.startswith(
                            "fleet_coordinator_jobs_completed "
                        ):
                            into.append(int(line.split()[1]))
                    time.sleep(0.005)

            def scrape_status():
                while not stop.is_set():
                    status = service.client.status(campaign)
                    if status["status"] not in ("running", "done"):
                        problems.append(f"bad status {status!r}")
                        return
                    status_series.append(status["jobs_done"])
                    time.sleep(0.005)

            threads = [
                threading.Thread(target=scrape_metrics, args=(metric_series[0],)),
                threading.Thread(target=scrape_metrics, args=(metric_series[1],)),
                threading.Thread(target=scrape_status),
            ]
            for thread in threads:
                thread.start()
            result = service.client.wait(campaign, timeout_s=120.0)
            # Let the scrapers observe the final state, then stop them.
            time.sleep(0.05)
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)

            assert problems == []
            assert result["status"] == "done"
            # Counters scraped mid-flight are monotone non-decreasing
            # within each scraper's own sample series.  The threads may
            # not have sampled the final state before stopping, so take
            # one authoritative post-completion scrape per series.
            final = None
            for line in service.client.metrics_text().splitlines():
                if line.startswith("fleet_coordinator_jobs_completed "):
                    final = int(line.split()[1])
            assert final == 3  # ceil(6 / chunk 2)
            for series in metric_series:
                assert series + [final] == sorted(series + [final])
            assert status_series == sorted(status_series)

            # The HTTP exposition itself is valid Prometheus text with
            # the declared content type semantics (non-JSON endpoint).
            text = service.client.metrics_text()
            assert validate_prometheus_text(text) == []
            assert "fleet_worker_jobs_executed" in text

            report = service.client.report(campaign)
            assert report["fleet"]["sources"] >= 2  # coordinator + workers
            events = fleet_trace_events(report)
            assert validate_trace_data(events) == []


# ---------------------------------------------------------------------------
# The headline invariant: fleet telemetry perturbs nothing.
# ---------------------------------------------------------------------------


class TestZeroPerturbation:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_det_fingerprints_identical_with_fleet_on(self, seed):
        from repro.apps.brake.det import run_det_brake_assistant
        from repro.explore import calibration_scenario

        scenario = calibration_scenario(20, deterministic_camera=True)
        fleet.disable()
        baseline = run_det_brake_assistant(seed, scenario)
        with fleet_capture() as f:
            f.inc("fleet.test.noise")  # a live registry, actually used
            observed = run_det_brake_assistant(seed, scenario)
        assert dict(baseline.trace_fingerprints) == dict(
            observed.trace_fingerprints
        )

    def test_nondet_fingerprints_identical_with_fleet_on(self):
        from repro.apps.brake.nondet import run_nondet_brake_assistant
        from repro.explore import calibration_scenario

        scenario = calibration_scenario(20)
        fleet.disable()
        baseline = run_nondet_brake_assistant(3, scenario)
        with fleet_capture():
            observed = run_nondet_brake_assistant(3, scenario)
        assert dict(baseline.trace_fingerprints) == dict(
            observed.trace_fingerprints
        )

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=50),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        variant=st.sampled_from(["det", "nondet"]),
        faulted=st.booleans(),
    )
    def test_sweep_results_byte_identical_fleet_on_vs_off(
        self, seeds, variant, faulted
    ):
        faults = (
            FaultPlan.camera_faults(
                seed=1, drop=0.05, duplicate=0.02, label="fleet-faults"
            )
            if faulted
            else None
        )
        spec = make_spec(
            seeds=seeds, variant=variant, frames=15, faults=faults
        )
        fleet.disable()
        baseline = local_reference(spec)
        with fleet_capture():
            observed = local_reference(spec)
        assert len(baseline) == len(observed)
        for off, on in zip(baseline, observed):
            assert pickle.dumps(off) == pickle.dumps(on)

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(make_spec(seeds=(0, 1, 2, 3, 4)), id="det"),
            pytest.param(
                make_spec(seeds=(3, 11, 7), variant="nondet"), id="nondet"
            ),
            pytest.param(
                make_spec(
                    seeds=(0, 1, 2, 5),
                    faults=FaultPlan.camera_faults(
                        seed=1,
                        drop=0.05,
                        duplicate=0.02,
                        label="fleet-faults",
                    ),
                ),
                id="faulted",
            ),
        ],
    )
    def test_service_byte_identical_with_fleet_enabled(self, spec, tmp_path):
        fleet.disable()
        reference = local_reference(spec)
        # LocalService enables fleet telemetry by default (entry-point
        # policy); the campaign must still merge byte-identical.
        with LocalService(
            tmp_path, workers=2, config=CoordinatorConfig(chunk_size=2)
        ) as service:
            assert fleet.ACTIVE.enabled
            served = service.run_spec(spec)
            text = service.client.metrics_text()
        fleet.disable()
        assert validate_prometheus_text(text) == []
        assert len(served) == len(reference)
        for value, expected in zip(served, reference):
            assert pickle.dumps(value) == pickle.dumps(expected)

    def test_service_respects_telemetry_optout(self, tmp_path, monkeypatch):
        monkeypatch.setenv(fleet.FLEET_ENV, "0")
        fleet.disable()
        spec = make_spec(seeds=(0, 1, 2))
        with LocalService(
            tmp_path, workers=1, config=CoordinatorConfig(chunk_size=2)
        ) as service:
            assert not fleet.ACTIVE.enabled
            served = service.run_spec(spec)
            report = service.client.report(
                service.client.campaigns()[-1]["campaign"]
            )
        assert report["fleet"]["coordinator"]["enabled"] is False
        assert len(served) == 3
