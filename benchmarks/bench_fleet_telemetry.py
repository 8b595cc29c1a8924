"""FLEET TELEMETRY — observing the fleet must cost ~nothing.

The fleet registry (``repro.obs.fleet``) instruments the sweep-service
hot path: every coordinator lease/complete, every worker report, every
store access.  Like the simulation's observability (PR 3), the claim is
two-sided and recorded to ``BENCH_fleet_telemetry.json``:

* **disabled is free** — the guard at every instrumented site is one
  module-global load plus one attribute check (``guard_ns_per_site``,
  asserted far below 1 µs);
* **enabled is cheap and harmless** — a stub-executor queue run (pure
  coordinator/worker overhead, where telemetry is proportionally most
  expensive) with telemetry on vs off gives ``telemetry_on_over_off``,
  and a real campaign through ``LocalService`` with telemetry enabled
  still merges byte-identical to the local engine while serving valid
  Prometheus text and a valid fleet trace.
"""

import pickle
import time

from repro.apps.brake.scenario import BrakeScenario
from repro.harness import ResultStore, ScenarioSpec, SweepRunner, env_int
from repro.obs import fleet
from repro.obs.export import validate_trace_data
from repro.obs.fleet import (
    fleet_capture,
    fleet_trace_events,
    prometheus_text,
    validate_prometheus_text,
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


def _queue_run(store_dir, queue_jobs, frames):
    """One stub-executor queue drain; returns (wall_s, coordinator, id)."""
    coordinator = Coordinator(
        ResultStore(store_dir), CoordinatorConfig(chunk_size=1)
    )
    client = LocalClient(coordinator)
    spec = ScenarioSpec(
        variant="det",
        seeds=tuple(range(queue_jobs)),
        scenario=BrakeScenario(n_frames=frames),
        label="bench-fleet-queue",
    )
    status = client.submit(spec)
    worker = Worker(client, poll_interval_s=0.001, execute=_stub_execute)
    started = time.perf_counter()
    completed = worker.run(max_jobs=queue_jobs)
    wall = time.perf_counter() - started
    assert completed == queue_jobs
    assert client.result(status["campaign"])["status"] == "done"
    return wall, coordinator, status["campaign"]


def test_fleet_telemetry(show, bench_json, tmp_path):
    queue_jobs = env_int("REPRO_FLEET_JOBS", 40)
    frames = env_int("REPRO_FLEET_FRAMES", 30)
    seeds = tuple(range(env_int("REPRO_FLEET_SEEDS", 6)))

    # -- micro-cost of the disabled guard ------------------------------------
    fleet.disable()
    iterations = 200_000
    started = time.perf_counter()
    for _ in range(iterations):
        f = fleet.ACTIVE
        if f.enabled:  # pragma: no cover - disabled in this loop
            raise AssertionError("fleet telemetry unexpectedly enabled")
    per_guard_ns = (time.perf_counter() - started) / iterations * 1e9

    # -- queue overhead, telemetry off vs on ---------------------------------
    fleet.disable()
    wall_off, _, _ = _queue_run(tmp_path / "queue-off", queue_jobs, frames)
    with fleet_capture() as handle:
        wall_on, coordinator, campaign = _queue_run(
            tmp_path / "queue-on", queue_jobs, frames
        )
        # While enabled: the exposition and the trace must be valid.
        prom_problems = validate_prometheus_text(prometheus_text())
        report = coordinator.report(campaign)
        trace_problems = validate_trace_data(fleet_trace_events(report))
        jobs_completed = handle.counter_value(
            "fleet.coordinator.jobs_completed"
        )

    # -- a real campaign with telemetry enabled, checked against local -------
    campaign_spec = ScenarioSpec(
        variant="det",
        seeds=seeds,
        scenario=BrakeScenario(n_frames=frames),
        label="bench-fleet-campaign",
    )
    fleet.disable()
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
    fleet.disable()

    bench_json.record(
        guard_iterations=iterations,
        guard_ns_per_site=round(per_guard_ns, 1),
        queue_jobs=queue_jobs,
        telemetry_off_wall_s=round(wall_off, 3),
        telemetry_on_wall_s=round(wall_on, 3),
        telemetry_on_over_off=round(wall_on / wall_off, 3),
        jobs_completed=jobs_completed,
        campaign_seeds=len(seeds),
        campaign_frames=frames,
        campaign_wall_s=round(campaign_wall, 3),
        distributed_equals_local=equals_local,
        prometheus_valid=not prom_problems,
        trace_valid=not trace_problems,
    )
    show(
        "fleet telemetry: "
        f"guard {per_guard_ns:.0f} ns/site | "
        f"queue {wall_off:.2f}s off vs {wall_on:.2f}s on "
        f"(x{wall_on / wall_off:.2f}) | "
        f"campaign {len(seeds)} seeds in {campaign_wall:.2f}s "
        f"(distributed == local: {equals_local})"
    )
    assert per_guard_ns < 1_000  # the disabled path costs ~nothing
    assert jobs_completed == queue_jobs
    assert prom_problems == []
    assert trace_problems == []
    assert equals_local
