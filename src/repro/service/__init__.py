"""Distributed sweep service: multi-host scenario campaigns over HTTP.

:class:`SweepRunner` (PR 1) fans one sweep over a local process pool;
this package turns sweeps into *campaigns* served by a shared worker
fleet, the workload shape of the paper's evaluation (100k-frame ×
20-run sweeps) run as heavy-traffic infrastructure:

* :mod:`repro.service.coordinator` — accepts
  :class:`~repro.harness.ScenarioSpec` campaign submissions, shards
  them into per-seed-chunk jobs and runs the job queue: lease/heartbeat
  tracking, retry with exponential backoff, per-job timeouts,
  worker-death requeue and terminal failure capture
  (:class:`~repro.harness.SeedOutcome`-compatible, never silent).
* :mod:`repro.service.worker` — the worker loop: registers with the
  coordinator, leases jobs under a heartbeat, executes them through the
  existing ``SweepRunner.run_spec`` path and streams results back.
* :mod:`repro.service.http` — the ``sweep-service/v1`` JSON API
  (stdlib ``http.server``; submit/status/result/report/workers plus the
  worker-facing lease endpoints), the matching
  :class:`~repro.service.http.HttpClient`, and
  :class:`~repro.service.http.LocalService`, the one-host mode that
  spawns in-process workers over loopback HTTP so every driver and
  test can exercise the full distributed path.

Campaign results live in the same :class:`~repro.harness.sweep.ResultStore`
as local sweeps, under the same keys, so a re-submitted campaign — or a
local ``SweepRunner.run_spec`` over the store directory — is a pure
cache hit across hosts.

The fleet observes itself through :mod:`repro.obs.fleet`: coordinator,
workers, stores and the sweep engine feed a process-global metrics
registry served as Prometheus text at ``GET /metrics``, job lifecycles
are stamped into per-campaign timelines renderable as a Perfetto fleet
trace, and every campaign report embeds a cross-worker
``fleet-metrics/v1`` merge.  Telemetry is enabled by the service entry
points (``REPRO_FLEET_TELEMETRY=0`` opts out) and never perturbs
experiment results.

The core invariant — property-tested in ``tests/test_service.py`` —
is that a campaign merged from any number of workers on any number of
hosts is **byte-identical** to ``SweepRunner.run_spec`` on one host:
results merge in seed order exactly as the local engine merges them.
"""

from repro.service.coordinator import (
    Campaign,
    Coordinator,
    CoordinatorConfig,
    Job,
)
from repro.service.http import (
    HttpClient,
    LocalClient,
    LocalService,
    ServiceError,
    ServiceServer,
    merged_values,
    seed_outcomes,
    serve,
)
from repro.service.worker import Worker, execute_job

PROTOCOL = "sweep-service/v1"

__all__ = [
    "PROTOCOL",
    "Campaign",
    "Coordinator",
    "CoordinatorConfig",
    "HttpClient",
    "Job",
    "LocalClient",
    "LocalService",
    "ServiceError",
    "ServiceServer",
    "Worker",
    "execute_job",
    "merged_values",
    "seed_outcomes",
    "serve",
]
