"""Sweep-service worker: lease, heartbeat, execute, stream back.

A worker is a loop around a client (HTTP or in-process): register with
the coordinator, lease the next job, execute its seed chunk through the
standard :meth:`SweepRunner.run_spec` path — the same engine every
local driver uses, per-seed error capture included — while a heartbeat
thread keeps the lease alive, then stream the encoded outcomes back.

Execution failures are *job-level* only when the chunk itself cannot
run (unloadable spec, engine crash); a failing seed is captured inside
its :class:`~repro.harness.SeedOutcome` by the sweep engine and
reported as a normal result, so one bad seed costs one seed, not a
retry of the whole chunk.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
import traceback
from typing import Callable

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

from repro.harness.config import ScenarioSpec
from repro.harness.sweep import SweepRunner, encode_value
from repro.obs import fleet

__all__ = ["Worker", "execute_job"]

log = logging.getLogger("repro.service.worker")


def _rusage() -> tuple[float, int]:
    """(cpu seconds, max RSS in KiB) of this process; zeros without
    the ``resource`` module."""
    if resource is None:
        return 0.0, 0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime, int(usage.ru_maxrss)


def execute_job(job: dict, runner: SweepRunner | None = None) -> list[dict]:
    """Run one leased job's seed chunk; return wire outcomes.

    The chunk spec is the campaign spec re-seeded with the job's seeds,
    so the execution path — and therefore every byte of every per-seed
    result — is exactly what ``SweepRunner.run_spec`` produces locally.
    """
    spec = ScenarioSpec.from_dict(job["spec"]).with_seeds(job["seeds"])
    runner = runner or SweepRunner(workers=1, use_cache=False)
    result = runner.run_spec(spec)
    outcomes = []
    for outcome in result.outcomes:
        if outcome.ok:
            encoding, payload = encode_value(outcome.value)
        else:
            encoding, payload = None, None
        outcomes.append(
            {
                "seed": outcome.seed,
                "encoding": encoding,
                "payload": payload,
                "error": outcome.error,
                "cached": False,
                "elapsed_s": outcome.elapsed_s,
            }
        )
    return outcomes


class Worker:
    """The lease/execute/report loop around a coordinator client.

    *client* is anything with the coordinator's worker-facing methods —
    :class:`~repro.service.http.HttpClient` for a remote coordinator,
    :class:`~repro.service.http.LocalClient` for an in-process one.
    """

    def __init__(
        self,
        client,
        poll_interval_s: float = 0.05,
        execute: Callable[[dict], list[dict]] = execute_job,
        info: dict | None = None,
    ):
        self.client = client
        self.poll_interval_s = poll_interval_s
        self.execute = execute
        self.info = dict(
            info or {"host": socket.gethostname(), "pid": os.getpid()}
        )
        self.worker_id: str | None = None
        self.jobs_completed = 0
        self.jobs_failed = 0
        #: heartbeat attempts that raised (coordinator down, network
        #: blip); surfaced in the next completion's ``exec`` info.
        self.heartbeat_failures = 0

    def register(self) -> str:
        self.worker_id = self.client.register(self.info)
        return self.worker_id

    # -- execution ------------------------------------------------------------

    def _heartbeat_loop(self, job_id: str, interval_s: float, done: threading.Event):
        while not done.wait(interval_s):
            try:
                reply = self.client.heartbeat(self.worker_id, job_id)
            except OSError as error:
                # Transient network error (or a dead coordinator): the
                # lease TTL absorbs it, but never die silently — count
                # it, log it, and surface it in the next report.
                self.heartbeat_failures += 1
                f = fleet.ACTIVE
                if f.enabled:
                    f.inc("fleet.worker.heartbeat_failures")
                log.warning(
                    "heartbeat for job %s failed (%d so far): %s",
                    job_id,
                    self.heartbeat_failures,
                    error,
                )
                continue
            if not reply.get("ok"):
                log.info(
                    "lease on job %s lost (%s): stop renewing",
                    job_id,
                    reply.get("reason", "reaped or re-leased"),
                )
                return

    def run_one(self, job: dict) -> bool:
        """Execute one leased job; returns True when results landed."""
        done = threading.Event()
        interval_s = max(0.02, float(job.get("lease_ttl_s", 15.0)) / 3.0)
        beater = threading.Thread(
            target=self._heartbeat_loop,
            args=(job["job"], interval_s, done),
            daemon=True,
        )
        beater.start()
        cpu_before, _ = _rusage()
        wall_before = time.perf_counter()
        try:
            outcomes = self.execute(job)
        except Exception:
            done.set()
            beater.join()
            self.jobs_failed += 1
            f = fleet.ACTIVE
            if f.enabled:
                f.inc("fleet.worker.jobs_failed")
            self.client.fail(self.worker_id, job["job"], traceback.format_exc())
            return False
        done.set()
        beater.join()
        wall_s = time.perf_counter() - wall_before
        cpu_after, max_rss_kb = _rusage()
        exec_info = {
            "wall_s": round(wall_s, 6),
            "cpu_s": round(max(0.0, cpu_after - cpu_before), 6),
            "max_rss_kb": max_rss_kb,
            "heartbeat_failures": self.heartbeat_failures,
            "host": self.info.get("host") or socket.gethostname(),
            "pid": os.getpid(),
        }
        f = fleet.ACTIVE
        telemetry = None
        if f.enabled:
            f.inc("fleet.worker.jobs_executed")
            f.inc("fleet.worker.seeds_executed", len(job.get("seeds", [])))
            f.observe("fleet.worker.job_wall_ns", wall_s * 1e9)
            f.observe(
                "fleet.worker.job_cpu_ns",
                max(0.0, cpu_after - cpu_before) * 1e9,
            )
            f.set_gauge("fleet.worker.max_rss_kb", max_rss_kb)
            telemetry = fleet.snapshot_document(f)
        reply = self.client.complete(
            self.worker_id,
            job["job"],
            outcomes,
            exec_info=exec_info,
            telemetry=telemetry,
        )
        if reply.get("ok"):
            self.jobs_completed += 1
            return True
        return False  # stale lease: another attempt owns the job now

    # -- the loop -------------------------------------------------------------

    def run(
        self,
        stop: threading.Event | None = None,
        max_idle_s: float | None = None,
        max_jobs: int | None = None,
    ) -> int:
        """Lease-and-execute until stopped; returns jobs completed.

        *max_idle_s* exits after that long without work (CI workers);
        *max_jobs* exits after completing that many (tests).  A
        coordinator that is down counts as idle — workers outlive
        coordinator restarts up to *max_idle_s*.
        """
        stop = stop or threading.Event()
        idle_since = time.monotonic()
        completed = 0
        while not stop.is_set():
            job: dict | None = None
            try:
                if self.worker_id is None:
                    self.register()
                job = self.client.lease(self.worker_id)
            except OSError:
                job = None
            if job is None:
                if (
                    max_idle_s is not None
                    and time.monotonic() - idle_since >= max_idle_s
                ):
                    break
                stop.wait(self.poll_interval_s)
                continue
            if self.run_one(job):
                completed += 1
            idle_since = time.monotonic()
            if max_jobs is not None and completed >= max_jobs:
                break
        return completed
