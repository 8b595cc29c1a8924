"""SERVICE — sweep-service latency, queue and store throughput.

Measures the three surfaces of the distributed sweep service
(``repro.service``) and records them to ``BENCH_service.json``:

* ``store_put_per_s`` / ``store_get_per_s`` — content-addressed
  result-store append and lookup throughput (the shared-filesystem
  hot path: one fcntl-locked fsync'd write per append);
* ``queue_jobs_per_s`` — coordinator lease/complete round-trips per
  second with a stub executor, isolating pure queue overhead from
  simulation cost;
* ``cached_submit_roundtrip_s`` — submit→result wall time for a fully
  cached campaign over real loopback HTTP (the "resubmission is a
  pure cache hit" path end to end);
* ``campaign_seeds_per_s`` — a real brake campaign through
  ``LocalService`` (HTTP coordinator + worker threads).

Correctness is asserted inline — ``distributed_equals_local`` is the
per-seed byte-identical merge check against ``SweepRunner.run_spec``;
a fast wrong answer is not a benchmark result.
"""

import pickle
import time

from repro.apps.brake.scenario import BrakeScenario
from repro.harness import (
    ResultStore,
    ScenarioSpec,
    SweepRunner,
    env_int,
    make_record,
)
from repro.service import (
    Coordinator,
    CoordinatorConfig,
    LocalClient,
    LocalService,
    Worker,
)


def _stub_execute(job):
    return [
        {
            "seed": seed,
            "encoding": "json",
            "payload": seed,
            "error": None,
            "cached": False,
            "elapsed_s": 0.0,
        }
        for seed in job["seeds"]
    ]


def test_service(show, bench_json, tmp_path):
    store_records = env_int("REPRO_SVC_RECORDS", 200)
    queue_jobs = env_int("REPRO_SVC_JOBS", 40)
    frames = env_int("REPRO_SVC_FRAMES", 30)
    seeds = tuple(range(env_int("REPRO_SVC_SEEDS", 8)))

    # -- store append / fetch throughput -------------------------------------
    store = ResultStore(tmp_path / "store-bench")
    keys = [f"{index:032x}" for index in range(store_records)]
    started = time.perf_counter()
    for index, key in enumerate(keys):
        value = {"seed": index, "value": [index] * 8}
        store.append("bench", [make_record(key, index, value)])
    put_wall = time.perf_counter() - started
    started = time.perf_counter()
    for key in keys:
        assert key in store.get_many("bench", [key])
    get_wall = time.perf_counter() - started

    # -- queue throughput (stub executor: pure coordinator overhead) ---------
    config = CoordinatorConfig(chunk_size=1)
    coordinator = Coordinator(ResultStore(tmp_path / "queue-bench"), config)
    client = LocalClient(coordinator)
    spec = ScenarioSpec(
        variant="det",
        seeds=tuple(range(queue_jobs)),
        scenario=BrakeScenario(n_frames=frames),
        label="bench-queue",
    )
    status = client.submit(spec)
    worker = Worker(client, poll_interval_s=0.001, execute=_stub_execute)
    started = time.perf_counter()
    completed = worker.run(max_jobs=queue_jobs)
    queue_wall = time.perf_counter() - started
    assert completed == queue_jobs
    assert client.result(status["campaign"])["status"] == "done"

    # -- a real campaign over loopback HTTP, checked against local -----------
    campaign_spec = ScenarioSpec(
        variant="det",
        seeds=seeds,
        scenario=BrakeScenario(n_frames=frames),
        label="bench-campaign",
    )
    reference = SweepRunner(workers=1, use_cache=False).run_spec(
        campaign_spec
    ).values()
    with LocalService(tmp_path / "svc-store", workers=2) as service:
        started = time.perf_counter()
        values = service.run_spec(campaign_spec)
        campaign_wall = time.perf_counter() - started
        equals_local = len(values) == len(reference) and all(
            pickle.dumps(a) == pickle.dumps(b)
            for a, b in zip(values, reference)
        )
        # resubmission: every seed served from the shared store.
        started = time.perf_counter()
        again = service.submit_and_wait(campaign_spec)
        cached_roundtrip = time.perf_counter() - started
    assert equals_local
    assert again["cached"] == len(seeds)
    assert again["pending"] == 0

    bench_json.record(
        store_records=store_records,
        store_put_per_s=round(store_records / put_wall, 2),
        store_get_per_s=round(store_records / get_wall, 2),
        queue_jobs=queue_jobs,
        queue_jobs_per_s=round(queue_jobs / queue_wall, 2),
        campaign_seeds=len(seeds),
        campaign_frames=frames,
        campaign_seeds_per_s=round(len(seeds) / campaign_wall, 2),
        cached_submit_roundtrip_s=round(cached_roundtrip, 4),
        cached_hits=again["cached"],
        distributed_equals_local=equals_local,
    )
    show(
        "sweep service: "
        f"store {store_records / put_wall:,.0f} put/s, "
        f"{store_records / get_wall:,.0f} get/s | "
        f"queue {queue_jobs / queue_wall:,.0f} jobs/s | "
        f"campaign {len(seeds) / campaign_wall:.1f} seeds/s "
        f"(distributed == local: {equals_local}) | "
        f"cached resubmit {cached_roundtrip * 1000:.1f} ms"
    )
