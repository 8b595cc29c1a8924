"""Tests for the distributed sweep service (coordinator/worker/HTTP).

The acceptance invariant for the whole subsystem: a campaign executed
across workers — over real loopback HTTP, with chunked jobs, retries
and worker deaths — merges **byte-identical** (per-seed pickle bytes,
in seed order) to ``SweepRunner.run_spec`` on one host.
"""

import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.brake.scenario import BrakeScenario
from repro.faults import FaultPlan
from repro.harness import ResultStore, ScenarioSpec, SweepRunner, record_key
from repro.harness.sweep import encode_value
from repro.service import (
    Coordinator,
    CoordinatorConfig,
    HttpClient,
    LocalClient,
    LocalService,
    ServiceError,
    Worker,
    merged_values,
    seed_outcomes,
    serve,
)
from repro.harness.sweep import SweepError


def make_spec(seeds=(0, 1, 2, 3, 4), variant="det", frames=40, faults=None):
    return ScenarioSpec(
        variant=variant,
        seeds=tuple(seeds),
        scenario=BrakeScenario(n_frames=frames),
        faults=faults,
        label="svc-test",
    )


def local_reference(spec):
    """The one-host ground truth the service must reproduce exactly."""
    return SweepRunner(workers=1, use_cache=False).run_spec(spec).values()


def assert_byte_identical(service_values, reference_values):
    assert len(service_values) == len(reference_values)
    for served, local in zip(service_values, reference_values):
        assert served == local
        assert pickle.dumps(served) == pickle.dumps(local)


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


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


class TestCoordinatorQueue:
    def test_sharding_chunks_in_seed_order(self, clocked):
        coordinator, _ = clocked
        status = coordinator.submit(make_spec(seeds=(5, 1, 3, 2, 8)))
        assert status["jobs"] == 3  # ceil(5 / chunk_size=2)
        worker = coordinator.register()
        chunks = []
        while (job := coordinator.lease(worker)) is not None:
            chunks.append(job["seeds"])
            coordinator.complete(worker, job["job"], wire_outcomes(job["seeds"]))
        assert chunks == [[5, 1], [3, 2], [8]]  # spec order, not sorted
        result = coordinator.result(status["campaign"])
        assert [o["seed"] for o in result["outcomes"]] == [5, 1, 3, 2, 8]

    def test_lease_is_exclusive_until_expiry(self, clocked):
        coordinator, _ = clocked
        coordinator.submit(make_spec(seeds=(0, 1)))
        w1, w2 = coordinator.register(), coordinator.register()
        job = coordinator.lease(w1)
        assert job is not None
        assert coordinator.lease(w2) is None  # single job, already leased

    def test_worker_death_requeues_with_backoff(self, clocked):
        coordinator, clock = clocked
        status = coordinator.submit(make_spec(seeds=(0, 1)))
        w1, w2 = coordinator.register(), coordinator.register()
        job = coordinator.lease(w1)
        clock.advance(5.1)  # TTL passes with no heartbeat: worker died
        assert coordinator.lease(w2) is None  # backoff: not yet runnable
        clock.advance(1.1)  # retry_backoff_s elapsed
        retried = coordinator.lease(w2)
        assert retried is not None
        assert retried["job"] == job["job"]
        assert retried["attempt"] == 2
        report = coordinator.report(status["campaign"])
        assert report["requeues"] == 1

    def test_heartbeat_extends_the_lease(self, clocked):
        coordinator, clock = clocked
        coordinator.submit(make_spec(seeds=(0, 1)))
        w1, w2 = coordinator.register(), coordinator.register()
        job = coordinator.lease(w1)
        for _ in range(4):
            clock.advance(4.0)
            assert coordinator.heartbeat(w1, job["job"])["ok"]
            assert coordinator.lease(w2) is None  # still held
        reply = coordinator.complete(w1, job["job"], wire_outcomes([0, 1]))
        assert reply["ok"]

    def test_heartbeat_cannot_outlive_the_job_timeout(self, clocked):
        coordinator, clock = clocked
        coordinator.submit(make_spec(seeds=(0, 1)))
        w1 = coordinator.register()
        job = coordinator.lease(w1)
        for _ in range(14):  # heartbeat diligently past job_timeout_s=60
            clock.advance(4.5)
            coordinator.heartbeat(w1, job["job"])
        clock.advance(4.5)
        assert not coordinator.heartbeat(w1, job["job"])["ok"]  # reaped

    def test_stale_complete_is_rejected_after_requeue(self, clocked):
        coordinator, clock = clocked
        status = coordinator.submit(make_spec(seeds=(0, 1)))
        w1, w2 = coordinator.register(), coordinator.register()
        job = coordinator.lease(w1)
        clock.advance(6.2)  # lease expires
        assert coordinator.lease(w2) is None  # reaped, but backoff pending
        clock.advance(1.1)
        retried = coordinator.lease(w2)
        assert retried is not None
        # the presumed-dead worker wakes up and reports late: dropped.
        reply = coordinator.complete(w1, job["job"], wire_outcomes([0, 1]))
        assert not reply["ok"]
        reply = coordinator.complete(w2, job["job"], wire_outcomes([0, 1]))
        assert reply["ok"]
        result = coordinator.result(status["campaign"])
        assert {o["worker"] for o in result["outcomes"]} == {w2}

    def test_reported_failure_retries_then_fails_terminally(self, clocked):
        """After max_attempts the seeds get error outcomes — never silent."""
        coordinator, clock = clocked
        status = coordinator.submit(make_spec(seeds=(0, 1, 2)))
        worker = coordinator.register()
        failed_attempts = []
        for _ in range(30):
            if coordinator.status(status["campaign"])["status"] == "done":
                break
            job = coordinator.lease(worker)
            if job is None:
                clock.advance(1.0)  # ride out the retry backoff
            elif job["job"].endswith("-j0"):  # chunk (0, 1): always fails
                failed_attempts.append(job["attempt"])
                coordinator.fail(worker, job["job"], f"boom {job['attempt']}")
            else:  # chunk (2,): succeeds
                coordinator.complete(worker, job["job"], wire_outcomes(job["seeds"]))
        assert failed_attempts == [1, 2, 3]  # max_attempts=3, then terminal
        final = coordinator.status(status["campaign"])
        assert final["status"] == "done"
        assert final["failed"] == 2
        result = coordinator.result(status["campaign"])
        outcomes = seed_outcomes(result)
        assert [o.ok for o in outcomes] == [False, False, True]
        assert "boom 3" in outcomes[0].error
        assert "failed terminally" in outcomes[1].error
        with pytest.raises(SweepError, match="2 seed"):
            merged_values(result)

    def test_cached_submit_completes_without_jobs(self, clocked):
        coordinator, _ = clocked
        spec = make_spec(seeds=(0, 1))
        worker = coordinator.register()
        coordinator.submit(spec)
        while (job := coordinator.lease(worker)) is not None:
            coordinator.complete(worker, job["job"], wire_outcomes(job["seeds"]))
        # a renamed superset campaign: both stored seeds hit, one runs
        again = coordinator.submit(make_spec(seeds=(0, 1, 9)))
        assert again["cached"] == 2
        assert again["jobs"] == 1

    def test_unknown_campaign_raises_key_error(self, clocked):
        coordinator, _ = clocked
        with pytest.raises(KeyError):
            coordinator.status("c999-deadbeef")


class TestLocalClientWorker:
    def test_worker_drains_queue_via_local_client(self, tmp_path):
        config = CoordinatorConfig(chunk_size=3, lease_ttl_s=5.0)
        coordinator = Coordinator(ResultStore(tmp_path / "store"), config)
        client = LocalClient(coordinator)
        spec = make_spec(seeds=(0, 1, 2, 3), frames=30)
        status = client.submit(spec)
        completed = Worker(client, poll_interval_s=0.01).run(max_jobs=2)
        assert completed == 2
        result = client.wait(status["campaign"], timeout_s=5.0)
        assert_byte_identical(merged_values(result), local_reference(spec))

    def test_undecodable_stored_payload_is_recomputed(self, tmp_path):
        """A corrupt store record is a miss, never a served cache hit."""
        spec = make_spec(seeds=(0, 1), frames=30)
        store = ResultStore(tmp_path)
        key = record_key(spec.store_name(), spec.content(), 0)
        bad = {"key": key, "seed": 0, "encoding": "pickle", "payload": "not b64!"}
        store.append(spec.store_name(), [bad])
        client = LocalClient(Coordinator(store, CoordinatorConfig(chunk_size=2)))
        status = client.submit(spec)
        assert status["cached"] == 0
        assert Worker(client, poll_interval_s=0.01).run(max_jobs=1) == 1
        result = client.wait(status["campaign"], timeout_s=5.0)
        assert_byte_identical(merged_values(result), local_reference(spec))

    def test_surface_matches_the_http_client(self, tmp_path):
        """Only the HTTP client's methods reach the coordinator, so a test
        written against LocalClient holds against HttpClient too."""
        client = LocalClient(Coordinator(ResultStore(tmp_path)))
        for name in LocalClient.FORWARDED:
            assert callable(getattr(HttpClient, name))
            assert callable(getattr(client, name))
        for name in ("idle", "store"):
            assert hasattr(client.coordinator, name)
            assert not hasattr(client, name)


class TestHttpApi:
    def test_protocol_shapes_and_errors(self, tmp_path):
        coordinator = Coordinator(ResultStore(tmp_path))
        server = serve(coordinator)
        try:
            client = HttpClient(server.url)
            assert client.ping()
            client.connect(timeout_s=1.0)
            with pytest.raises(ServiceError) as excinfo:
                client.status("c1-nope")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                client._request("/v1/submit", {"spec": {"format": "junk"}})
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                client._request("/v1/lease", {})
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                client._request("/v1/nope", {})
            assert excinfo.value.status == 404
            worker_id = client.register({"host": "test"})
            assert client.lease(worker_id) is None
            workers = client.workers()
            assert [w["worker"] for w in workers] == [worker_id]
            assert workers[0]["info"] == {"host": "test"}
        finally:
            server.shutdown()
            server.server_close()

    def test_campaign_flow_over_http(self, tmp_path):
        spec = make_spec(seeds=(0, 1, 2), frames=30)
        with LocalService(tmp_path / "store", workers=2) as service:
            status = service.client.submit(spec)
            result = service.client.wait(status["campaign"], timeout_s=60.0)
            assert result["status"] == "done"
            report = service.client.report(status["campaign"])
            assert report["format"] == "sweep-service/v1"
            assert report["status"] == "done"
            assert report["store"]["records"] == 3
            campaigns = service.client.campaigns()
            assert len(campaigns) == 1
        assert_byte_identical(merged_values(result), local_reference(spec))


CASES = [
    pytest.param(make_spec(seeds=(0, 1, 2, 3, 4)), id="det"),
    pytest.param(make_spec(seeds=(3, 11, 7), variant="nondet"), id="nondet"),
    pytest.param(
        make_spec(
            seeds=(0, 1, 2, 5),
            faults=FaultPlan.camera_faults(
                seed=1, drop=0.05, duplicate=0.02, label="svc-faults"
            ),
        ),
        id="faulted",
    ),
]


class TestDistributedEqualsLocal:
    """The core invariant: distributed merge ≡ local run, byte for byte."""

    @pytest.mark.parametrize("spec", CASES)
    def test_campaign_matches_run_spec(self, tmp_path, spec):
        reference = local_reference(spec)
        config = CoordinatorConfig(chunk_size=2)
        with LocalService(tmp_path / "store", workers=3, config=config) as svc:
            values = svc.run_spec(spec, timeout_s=120.0)
            report = svc.client.report(svc.client.campaigns()[0]["campaign"])
        assert report["jobs"]  # really went through the queue
        assert len({j["worker"] for j in report["jobs"]}) >= 1
        assert_byte_identical(values, reference)

    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=30),
            min_size=1,
            max_size=5,
            unique=True,
        ),
        variant=st.sampled_from(["det", "nondet"]),
        chunk_size=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=6, deadline=None)
    def test_property_any_seed_list_any_chunking(
        self, tmp_path_factory, seeds, variant, chunk_size
    ):
        spec = make_spec(seeds=tuple(seeds), variant=variant, frames=20)
        reference = local_reference(spec)
        store_dir = tmp_path_factory.mktemp("svc-prop")
        config = CoordinatorConfig(chunk_size=chunk_size)
        with LocalService(store_dir, workers=2, config=config) as svc:
            values = svc.run_spec(spec, timeout_s=120.0)
        assert_byte_identical(values, reference)

    def test_resubmission_is_pure_cache_hit(self, tmp_path):
        spec = make_spec(seeds=(0, 1, 2, 3))
        reference = local_reference(spec)
        store_dir = tmp_path / "shared-store"
        with LocalService(store_dir, workers=2) as svc:
            first = svc.submit_and_wait(spec)
            assert first["cached"] == 0
        # a *fresh* coordinator (new host, same shared store): pure hit.
        with LocalService(store_dir, workers=0) as svc:
            again = svc.client.submit(spec)
            assert again["cached"] == 4
            assert again["jobs"] == 0
            result = svc.client.wait(again["campaign"], timeout_s=5.0)
        assert all(o["cached"] for o in result["outcomes"])
        assert_byte_identical(merged_values(result), reference)



def _subprocess_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


class TestCoordinatorCrash:
    def test_fresh_coordinator_reuses_the_store_of_a_killed_one(self, tmp_path):
        """Kill -9 ``repro serve`` mid-campaign, start a fresh coordinator
        on the same store and resubmit: every seed finished before the
        kill is a cache hit, and the merged campaign is still
        byte-identical to the local run."""
        spec = make_spec(seeds=tuple(range(8)), frames=300)
        reference = local_reference(spec)
        store_dir = tmp_path / "store"
        serve_cmd = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--store-dir", str(store_dir), "--local-workers", "1",
            "--chunk-size", "1",
        ]
        coordinator = subprocess.Popen(
            serve_cmd, stdout=subprocess.PIPE, text=True, env=_subprocess_env()
        )
        try:
            banner = coordinator.stdout.readline()
            url = re.search(r"on (http://\S+)", banner).group(1)
            client = HttpClient(url)
            campaign = client.submit(spec)["campaign"]
            deadline = time.monotonic() + 120.0
            while True:
                status = client.status(campaign)
                if status["jobs_done"] >= 1:
                    break
                assert time.monotonic() < deadline, status
                time.sleep(0.05)
            finished = status["seeds"] - status["pending"] - status["cached"]
            coordinator.send_signal(signal.SIGKILL)
            coordinator.wait(timeout=10)
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.wait(timeout=10)
            coordinator.stdout.close()
        assert finished >= 1
        with LocalService(store_dir, workers=1) as svc:
            again = svc.client.submit(spec)
            assert again["cached"] >= finished
            result = svc.client.wait(again["campaign"], timeout_s=120.0)
        assert result["status"] == "done"
        assert_byte_identical(merged_values(result), reference)


_HANG_WORKER = """
import sys, time
from repro.service import HttpClient

client = HttpClient(sys.argv[1])
worker_id = client.register({"hang": True})
job = client.lease(worker_id)
print("leased" if job else "none", flush=True)
time.sleep(120)
"""


class TestWorkerDeath:
    def test_killed_worker_requeues_and_campaign_still_matches_local(self, tmp_path):
        """Kill -9 a worker mid-job: the lease expires, the job requeues
        with backoff, surviving workers finish, and the merged campaign
        is still byte-identical to the local run."""
        spec = make_spec(seeds=(0, 1, 2, 3, 4, 5), frames=30)
        reference = local_reference(spec)
        config = CoordinatorConfig(
            chunk_size=2,
            lease_ttl_s=0.4,
            retry_backoff_s=0.05,
            max_attempts=4,
        )
        store = ResultStore(tmp_path / "store")
        coordinator = Coordinator(store, config)
        server = serve(coordinator)
        try:
            client = HttpClient(server.url)
            status = client.submit(spec)
            victim = subprocess.Popen(
                [sys.executable, "-c", _HANG_WORKER, server.url],
                stdout=subprocess.PIPE,
                text=True,
                env=_subprocess_env(),
            )
            try:
                assert victim.stdout.readline().strip() == "leased"
                victim.send_signal(signal.SIGKILL)  # worker dies mid-job
                victim.wait(timeout=10)
            finally:
                if victim.poll() is None:
                    victim.kill()
            stop = threading.Event()
            workers = [Worker(HttpClient(server.url)) for _ in range(2)]
            threads = [
                threading.Thread(target=w.run, kwargs={"stop": stop}, daemon=True)
                for w in workers
            ]
            for thread in threads:
                thread.start()
            try:
                result = client.wait(status["campaign"], timeout_s=120.0)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10.0)
            report = client.report(status["campaign"])
        finally:
            server.shutdown()
            server.server_close()
        assert report["requeues"] >= 1  # the killed worker's lease expired
        assert report["failed"] == 0  # retry rescued it, not an error entry
        assert_byte_identical(merged_values(result), reference)

    def test_backoff_delays_the_retry(self, tmp_path):
        """After a worker death the job is not immediately re-leasable."""
        clock = FakeClock()
        config = CoordinatorConfig(chunk_size=2, lease_ttl_s=0.5, retry_backoff_s=3.0)
        coordinator = Coordinator(ResultStore(tmp_path), config, clock=clock)
        coordinator.submit(make_spec(seeds=(0, 1)))
        w1, w2 = coordinator.register(), coordinator.register()
        assert coordinator.lease(w1) is not None
        clock.advance(0.6)  # death detected
        assert coordinator.lease(w2) is None
        clock.advance(1.0)  # backoff (3s) not yet over
        assert coordinator.lease(w2) is None
        clock.advance(2.5)
        assert coordinator.lease(w2) is not None
