"""Campaign coordinator: shard specs into jobs, run the queue.

The coordinator owns every campaign's lifecycle:

1. **Submit.** A :class:`~repro.harness.ScenarioSpec` arrives; each
   seed's content key (:func:`~repro.harness.sweep.record_key`, exactly
   as ``SweepRunner.run_spec`` computes it) is probed against the
   shared :class:`~repro.harness.sweep.ResultStore`.  Store hits
   become cached outcomes immediately; the remaining seeds
   are chunked — in seed order — into per-seed-chunk :class:`Job`\\ s.
2. **Lease.** Workers lease jobs FIFO (campaign order, then chunk
   order).  A lease carries a TTL refreshed by heartbeats and a hard
   per-job deadline that heartbeats cannot extend past.
3. **Requeue / retry.** An expired lease (worker death, hang, or
   deadline overrun) requeues the job with exponential backoff; a
   worker-reported failure does the same.  After ``max_attempts`` the
   job fails terminally and every one of its seeds receives a
   :class:`~repro.harness.SeedOutcome`-compatible error outcome — a
   campaign always completes with every seed accounted for, never
   silently.
4. **Merge.** Completed outcomes land at their seed's position, so the
   finished campaign reads back in seed order — byte-identical to
   ``SweepRunner.run_spec`` on one host, however the jobs were
   scattered.

The coordinator is a plain thread-safe object: the HTTP layer
(:mod:`repro.service.http`) is a veneer over these methods, and tests
drive them directly with an injected clock.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.harness.config import ScenarioSpec
from repro.harness.sweep import ResultStore, encode_value, record_key
from repro.obs import fleet

__all__ = ["Coordinator", "CoordinatorConfig", "Campaign", "Job"]


@dataclass(frozen=True)
class CoordinatorConfig:
    """Queue/retry knobs (all times in seconds).

    Attributes:
        chunk_size: seeds per job; small chunks spread a campaign wider
            across the fleet, large chunks amortize per-job overhead.
        max_attempts: lease-or-fail attempts before a job fails
            terminally (covers both reported failures and dead workers).
        lease_ttl_s: how long a lease survives without a heartbeat.
        job_timeout_s: hard wall-clock budget per job attempt;
            heartbeats cannot extend a lease past it.
        retry_backoff_s: delay before attempt 2; doubles per attempt.
    """

    chunk_size: int = 4
    max_attempts: int = 3
    lease_ttl_s: float = 15.0
    job_timeout_s: float = 600.0
    retry_backoff_s: float = 0.25

    def backoff_for(self, attempt: int) -> float:
        """Requeue delay after the *attempt*-th failed attempt (1-based)."""
        return self.retry_backoff_s * (2.0 ** (attempt - 1))


@dataclass
class Job:
    """One seed chunk of one campaign, tracked through the queue."""

    job_id: str
    campaign_id: str
    chunk: int
    seeds: tuple
    #: positions of these seeds in the campaign's seed list.
    positions: tuple
    state: str = "pending"  # pending | leased | done | failed
    attempt: int = 0
    not_before: float = 0.0
    worker: str | None = None
    leased_at: float = 0.0
    lease_expires: float = 0.0
    deadline: float = 0.0
    requeues: int = 0
    error: str | None = None
    elapsed_s: float = 0.0
    #: when the job (re)entered the pending state, for lease latency.
    pending_since: float = 0.0
    #: coordinator-stamped lifecycle events (queued/leased/requeued/
    #: done/failed), rendered by :func:`repro.obs.fleet.fleet_trace_events`.
    timeline: list = field(default_factory=list)
    #: worker-side execution stats shipped back with the completion.
    exec_info: dict | None = None

    def stamp(self, event: str, t: float, **extra: Any) -> None:
        """Append one lifecycle event to the job's timeline."""
        record: dict[str, Any] = {"event": event, "t": t}
        record.update({k: v for k, v in extra.items() if v is not None})
        self.timeline.append(record)

    def to_wire(self, spec_dict: dict, config: CoordinatorConfig) -> dict:
        """The lease response handed to a worker."""
        return {
            "job": self.job_id,
            "campaign": self.campaign_id,
            "chunk": self.chunk,
            "seeds": list(self.seeds),
            "spec": spec_dict,
            "attempt": self.attempt,
            "lease_ttl_s": config.lease_ttl_s,
            "job_timeout_s": config.job_timeout_s,
        }

    def describe(self) -> dict:
        return {
            "job": self.job_id,
            "chunk": self.chunk,
            "seeds": list(self.seeds),
            "state": self.state,
            "attempt": self.attempt,
            "requeues": self.requeues,
            "worker": self.worker,
            "error": self.error,
            "elapsed_s": round(self.elapsed_s, 6),
            "timeline": list(self.timeline),
            "exec": self.exec_info,
        }


@dataclass
class Campaign:
    """One submitted spec and the merged outcomes accumulating for it."""

    campaign_id: str
    spec: ScenarioSpec
    keys: list[str]
    submitted_at: float
    #: wire outcomes, one slot per seed position; ``None`` = pending.
    outcomes: list[dict | None] = field(default_factory=list)
    jobs: list[str] = field(default_factory=list)
    completed_at: float | None = None

    @property
    def done(self) -> bool:
        return all(outcome is not None for outcome in self.outcomes)

    def counts(self) -> dict[str, int]:
        filled = [outcome for outcome in self.outcomes if outcome is not None]
        return {
            "seeds": len(self.outcomes),
            "pending": len(self.outcomes) - len(filled),
            "cached": sum(1 for o in filled if o.get("cached")),
            "failed": sum(1 for o in filled if o.get("error") is not None),
        }


def _campaign_outcome(
    seed: Any,
    *,
    encoding: str | None = None,
    payload: Any = None,
    error: str | None = None,
    cached: bool = False,
    elapsed_s: float = 0.0,
    worker: str | None = None,
) -> dict:
    """A ``SeedOutcome``-compatible wire outcome."""
    return {
        "seed": seed,
        "encoding": encoding,
        "payload": payload,
        "error": error,
        "cached": cached,
        "elapsed_s": elapsed_s,
        "worker": worker,
    }


class Coordinator:
    """Thread-safe campaign/job state machine over a shared store."""

    def __init__(
        self,
        store: ResultStore,
        config: CoordinatorConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.store = store
        self.config = config or CoordinatorConfig()
        self.clock = clock
        self._lock = threading.RLock()
        self._campaigns: dict[str, Campaign] = {}
        self._campaign_order: list[str] = []
        self._jobs: dict[str, Job] = {}
        self._workers: dict[str, dict] = {}
        self._counter = 0
        self.requeues_total = 0
        self.retries_total = 0
        self._pending_jobs = 0
        #: latest fleet-metrics/v1 document shipped by each worker.
        self._worker_telemetry: dict[str, dict] = {}

    def _note_queue_depth(self, delta: int) -> None:
        self._pending_jobs += delta
        fleet.set_gauge("fleet.coordinator.queue_depth", self._pending_jobs)

    # -- workers -------------------------------------------------------------

    def register(self, info: dict | None = None) -> str:
        """Register a worker; returns its id."""
        with self._lock:
            self._counter += 1
            worker_id = f"w{self._counter}"
            self._workers[worker_id] = {
                "worker": worker_id,
                "info": dict(info or {}),
                "registered_at": self.clock(),
                "last_seen": self.clock(),
                "jobs_completed": 0,
                "jobs_failed": 0,
            }
            return worker_id

    def workers(self) -> list[dict]:
        with self._lock:
            now = self.clock()
            return [
                {**entry, "idle_s": round(now - entry["last_seen"], 3)}
                for entry in self._workers.values()
            ]

    def _touch(self, worker_id: str) -> None:
        entry = self._workers.get(worker_id)
        if entry is not None:
            entry["last_seen"] = self.clock()

    # -- submission ----------------------------------------------------------

    def submit(self, spec: ScenarioSpec) -> dict:
        """Accept a campaign: store-hit what we can, shard the rest."""
        with self._lock:
            self._counter += 1
            spec_hash = hashlib.sha256(
                spec.to_json().encode()
            ).hexdigest()[:8]
            campaign_id = f"c{self._counter}-{spec_hash}"
            name, params = spec.store_name(), spec.content()
            keys = [record_key(name, params, seed) for seed in spec.seeds]
            campaign = Campaign(
                campaign_id=campaign_id,
                spec=spec,
                keys=keys,
                submitted_at=self.clock(),
                outcomes=[None] * len(spec.seeds),
            )
            known = self.store.get_many(name, keys)
            pending: list[int] = []
            for position, (seed, key) in enumerate(zip(spec.seeds, keys)):
                if key in known:
                    encoding, payload = encode_value(known[key])
                    campaign.outcomes[position] = _campaign_outcome(
                        seed, encoding=encoding, payload=payload, cached=True
                    )
                else:
                    pending.append(position)
            chunk_size = max(1, self.config.chunk_size)
            for chunk, start in enumerate(range(0, len(pending), chunk_size)):
                positions = tuple(pending[start : start + chunk_size])
                job = Job(
                    job_id=f"{campaign_id}-j{chunk}",
                    campaign_id=campaign_id,
                    chunk=chunk,
                    seeds=tuple(spec.seeds[p] for p in positions),
                    positions=positions,
                    pending_since=campaign.submitted_at,
                )
                job.stamp("queued", campaign.submitted_at)
                self._jobs[job.job_id] = job
                campaign.jobs.append(job.job_id)
            self._campaigns[campaign_id] = campaign
            self._campaign_order.append(campaign_id)
            if campaign.done:  # pure cache hit: no jobs at all
                campaign.completed_at = self.clock()
            fleet.inc("fleet.coordinator.campaigns_submitted")
            fleet.inc("fleet.coordinator.jobs_created", len(campaign.jobs))
            cached = len(spec.seeds) - len(pending)
            if cached:
                fleet.inc("fleet.coordinator.seeds_cached", cached)
            self._note_queue_depth(len(campaign.jobs))
            return self.status(campaign_id)

    # -- the queue -----------------------------------------------------------

    def _reap(self) -> None:
        """Requeue (or terminally fail) jobs whose lease expired."""
        now = self.clock()
        for job in self._jobs.values():
            if job.state == "leased" and job.lease_expires <= now:
                job.requeues += 1
                self.requeues_total += 1
                fleet.inc("fleet.coordinator.worker_deaths")
                fleet.inc("fleet.coordinator.requeues")
                self._retry_or_fail(
                    job,
                    f"lease expired on worker {job.worker!r} "
                    f"(attempt {job.attempt}): worker death or timeout",
                )

    def _retry_or_fail(self, job: Job, error: str) -> None:
        if job.attempt >= self.config.max_attempts:
            job.state = "failed"
            job.error = error
            job.stamp("failed", self.clock(), attempt=job.attempt, reason=error)
            job.worker = None
            fleet.inc("fleet.coordinator.jobs_failed")
            campaign = self._campaigns[job.campaign_id]
            for position, seed in zip(job.positions, job.seeds):
                campaign.outcomes[position] = _campaign_outcome(
                    seed,
                    error=(
                        f"sweep-service job {job.job_id} failed terminally "
                        f"after {job.attempt} attempt(s): {error}"
                    ),
                )
            self._maybe_complete(campaign)
        else:
            now = self.clock()
            job.state = "pending"
            job.stamp("requeued", now, attempt=job.attempt, reason=error)
            job.worker = None
            job.pending_since = now
            job.not_before = now + self.config.backoff_for(job.attempt)
            self._note_queue_depth(1)

    def lease(self, worker_id: str) -> dict | None:
        """Hand the next runnable job to *worker_id* (or ``None``)."""
        with self._lock:
            self._touch(worker_id)
            self._reap()
            now = self.clock()
            for campaign_id in self._campaign_order:
                campaign = self._campaigns[campaign_id]
                for job_id in campaign.jobs:
                    job = self._jobs[job_id]
                    if job.state != "pending" or job.not_before > now:
                        continue
                    job.state = "leased"
                    job.attempt += 1
                    job.worker = worker_id
                    job.leased_at = now
                    job.deadline = now + self.config.job_timeout_s
                    job.lease_expires = min(
                        now + self.config.lease_ttl_s, job.deadline
                    )
                    job.stamp(
                        "leased", now, worker=worker_id, attempt=job.attempt
                    )
                    self._note_queue_depth(-1)
                    # Latency from when the job became *runnable*
                    # (requeue backoff is policy, not queue delay).
                    runnable = max(job.pending_since, job.not_before)
                    fleet.observe(
                        "fleet.coordinator.lease_latency_ns",
                        max(0.0, now - runnable) * 1e9,
                    )
                    fleet.inc("fleet.coordinator.leases")
                    return job.to_wire(campaign.spec.to_dict(), self.config)
            return None

    def heartbeat(self, worker_id: str, job_id: str) -> dict:
        """Extend a lease; ``{"ok": False}`` tells the worker to stop."""
        with self._lock:
            self._touch(worker_id)
            self._reap()  # a heartbeat past the deadline must not renew
            job = self._jobs.get(job_id)
            if job is None or job.state != "leased" or job.worker != worker_id:
                return {"ok": False}
            job.lease_expires = min(
                self.clock() + self.config.lease_ttl_s, job.deadline
            )
            return {"ok": True}

    def complete(
        self,
        worker_id: str,
        job_id: str,
        outcomes: list[dict],
        exec_info: dict | None = None,
        telemetry: dict | None = None,
    ) -> dict:
        """Accept a job's results; first completion wins.

        *exec_info* is the worker-side execution span (wall/cpu/RSS,
        heartbeat failures) attached to the job for the fleet trace;
        *telemetry* is the worker's ``fleet-metrics/v1`` document,
        merged into the campaign report's fleet block.
        """
        with self._lock:
            self._touch(worker_id)
            job = self._jobs.get(job_id)
            if job is None:
                return {"ok": False, "reason": "unknown job"}
            if telemetry is not None:
                self._worker_telemetry[worker_id] = telemetry
            if job.state != "leased" or job.worker != worker_id:
                # Stale: the lease was reaped and the job re-leased (or
                # already finished elsewhere).  Drop this copy.
                fleet.inc("fleet.coordinator.stale_reports")
                return {"ok": False, "reason": f"job is {job.state}"}
            by_seed = {outcome["seed"]: outcome for outcome in outcomes}
            missing = [seed for seed in job.seeds if seed not in by_seed]
            if missing:
                return {"ok": False, "reason": f"missing seeds {missing}"}
            now = self.clock()
            job.state = "done"
            job.elapsed_s = now - job.leased_at
            job.exec_info = exec_info
            job.stamp("done", now, worker=worker_id, attempt=job.attempt)
            fleet.inc("fleet.coordinator.jobs_completed")
            fleet.observe("fleet.coordinator.job_duration_ns", job.elapsed_s * 1e9)
            campaign = self._campaigns[job.campaign_id]
            fresh: list[dict] = []
            for position, seed in zip(job.positions, job.seeds):
                outcome = dict(by_seed[seed])
                outcome["worker"] = worker_id
                campaign.outcomes[position] = outcome
                if outcome.get("error") is None:
                    fresh.append(
                        {
                            "key": campaign.keys[position],
                            "seed": outcome["seed"],
                            "encoding": outcome["encoding"],
                            "payload": outcome["payload"],
                        }
                    )
            self.store.append(campaign.spec.store_name(), fresh)
            entry = self._workers.get(worker_id)
            if entry is not None:
                entry["jobs_completed"] += 1
            self._maybe_complete(campaign)
            return {"ok": True}

    def fail(self, worker_id: str, job_id: str, error: str) -> dict:
        """A worker reports a job-level failure: retry with backoff."""
        with self._lock:
            self._touch(worker_id)
            job = self._jobs.get(job_id)
            if job is None:
                return {"ok": False, "reason": "unknown job"}
            if job.state != "leased" or job.worker != worker_id:
                fleet.inc("fleet.coordinator.stale_reports")
                return {"ok": False, "reason": f"job is {job.state}"}
            self.retries_total += 1
            fleet.inc("fleet.coordinator.retries")
            entry = self._workers.get(worker_id)
            if entry is not None:
                entry["jobs_failed"] += 1
            self._retry_or_fail(job, error)
            return {"ok": True, "terminal": job.state == "failed"}

    def _maybe_complete(self, campaign: Campaign) -> None:
        if campaign.completed_at is None and campaign.done:
            campaign.completed_at = self.clock()

    # -- read side -----------------------------------------------------------

    def _campaign(self, campaign_id: str) -> Campaign:
        campaign = self._campaigns.get(campaign_id)
        if campaign is None:
            raise KeyError(f"unknown campaign {campaign_id!r}")
        return campaign

    def status(self, campaign_id: str) -> dict:
        with self._lock:
            self._reap()
            campaign = self._campaign(campaign_id)
            jobs = [self._jobs[job_id] for job_id in campaign.jobs]
            counts = campaign.counts()
            now = (
                campaign.completed_at
                if campaign.completed_at is not None
                else self.clock()
            )
            elapsed_s = max(0.0, now - campaign.submitted_at)
            computed = (
                len(campaign.outcomes)
                - counts["pending"]
                - counts["cached"]
            )
            seeds_per_s = computed / elapsed_s if elapsed_s > 0 else 0.0
            eta_s = (
                counts["pending"] / seeds_per_s
                if counts["pending"] and seeds_per_s > 0
                else (None if counts["pending"] else 0.0)
            )
            return {
                "campaign": campaign.campaign_id,
                "status": "done" if campaign.done else "running",
                **counts,
                "jobs": len(jobs),
                "jobs_done": sum(1 for job in jobs if job.state == "done"),
                "jobs_failed": sum(1 for job in jobs if job.state == "failed"),
                "queue_depth": sum(1 for job in jobs if job.state == "pending"),
                "leased": sum(1 for job in jobs if job.state == "leased"),
                "elapsed_s": round(elapsed_s, 6),
                "seeds_per_s": round(seeds_per_s, 3),
                "eta_s": round(eta_s, 3) if eta_s is not None else None,
                "label": campaign.spec.sweep_name(),
            }

    def result(self, campaign_id: str) -> dict:
        """Merged wire outcomes in seed order (once the campaign is done)."""
        with self._lock:
            self._reap()
            campaign = self._campaign(campaign_id)
            if not campaign.done:
                return {
                    "campaign": campaign_id,
                    "status": "running",
                    **campaign.counts(),
                }
            return {
                "campaign": campaign_id,
                "status": "done",
                **campaign.counts(),
                "elapsed_s": round(
                    campaign.completed_at - campaign.submitted_at, 6
                ),
                "outcomes": list(campaign.outcomes),
            }

    def report(self, campaign_id: str) -> dict:
        """The full campaign post-mortem (CI artifact shape)."""
        with self._lock:
            self._reap()
            campaign = self._campaign(campaign_id)
            jobs = [self._jobs[job_id] for job_id in campaign.jobs]
            return {
                "format": "sweep-service/v1",
                "kind": "campaign-report",
                "campaign": campaign_id,
                "status": "done" if campaign.done else "running",
                **campaign.counts(),
                "spec": campaign.spec.to_dict(),
                "submitted_at": campaign.submitted_at,
                "jobs": [job.describe() for job in jobs],
                "requeues": sum(job.requeues for job in jobs),
                "retries": sum(max(0, job.attempt - 1) for job in jobs),
                "elapsed_s": (
                    round(campaign.completed_at - campaign.submitted_at, 6)
                    if campaign.completed_at is not None
                    else None
                ),
                "workers": self.workers(),
                "store": self.store.stats(),
                "fleet": self._fleet_block(),
                "config": {
                    "chunk_size": self.config.chunk_size,
                    "max_attempts": self.config.max_attempts,
                    "lease_ttl_s": self.config.lease_ttl_s,
                    "job_timeout_s": self.config.job_timeout_s,
                    "retry_backoff_s": self.config.retry_backoff_s,
                },
            }

    def _fleet_block(self) -> dict:
        """The campaign report's fleet telemetry: this process plus the
        latest snapshot each worker shipped, merged across the fleet."""
        coordinator_doc = fleet.snapshot_document()
        worker_docs = dict(self._worker_telemetry)
        merged = fleet.merge_fleet_documents(
            [coordinator_doc, *worker_docs.values()]
        )
        return {
            "format": fleet.FLEET_FORMAT,
            "coordinator": coordinator_doc,
            "workers": worker_docs,
            "merged": merged["merged"],
            "sources": merged["sources"],
        }

    def campaigns(self) -> list[dict]:
        with self._lock:
            return [self.status(cid) for cid in self._campaign_order]

    def idle(self) -> bool:
        """True when no campaign has runnable or in-flight work."""
        with self._lock:
            self._reap()
            return all(
                self._campaigns[cid].done for cid in self._campaign_order
            )
