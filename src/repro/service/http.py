"""The ``sweep-service/v1`` HTTP API, clients, and local mode.

Pure stdlib (``http.server`` + ``json`` + ``urllib``): no new
dependencies.  Every response is a JSON object carrying
``"protocol": "sweep-service/v1"``.

Client-facing endpoints::

    GET  /v1/ping               liveness + protocol version
    POST /v1/submit             {"spec": <scenario-spec/v1>} -> status
    GET  /v1/status/<campaign>  campaign progress counts
    GET  /v1/result/<campaign>  merged wire outcomes in seed order
    GET  /v1/report/<campaign>  full post-mortem (jobs, retries, store)
    GET  /v1/campaigns          every campaign's status
    GET  /v1/workers            registered workers + last-seen

Worker-facing endpoints (the lease protocol)::

    POST /v1/register           {"info": {...}} -> {"worker": id}
    POST /v1/lease              {"worker": id} -> {"job": {...} | null}
    POST /v1/heartbeat          {"worker": id, "job": id}
    POST /v1/complete           {"worker": id, "job": id, "outcomes": [...]}
    POST /v1/fail               {"worker": id, "job": id, "error": str}

:class:`HttpClient` and :class:`LocalClient` expose the same method
surface, so :class:`~repro.service.worker.Worker` and the CLI are
transport-agnostic.  :class:`LocalService` is the one-host mode: a real
HTTP server on loopback plus N in-process worker threads talking to it
over HTTP — the full distributed path, exercisable in any test.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro.harness.config import ScenarioSpec
from repro.harness.sweep import ResultStore, SeedOutcome, SweepError, decode_value
from repro.obs import fleet
from repro.service.coordinator import Coordinator, CoordinatorConfig

__all__ = [
    "HttpClient",
    "LocalClient",
    "LocalService",
    "ServiceError",
    "ServiceServer",
    "seed_outcomes",
    "merged_values",
    "serve",
    "campaign_report",
    "result_report",
    "status_table",
]

PROTOCOL = "sweep-service/v1"


# ---------------------------------------------------------------------------
# Result decoding and status rendering (shared by clients, CLI and tests).
# ---------------------------------------------------------------------------


def seed_outcomes(result: dict) -> list[SeedOutcome]:
    """Decode a ``/v1/result`` document into :class:`SeedOutcome` list.

    The outcomes arrive in seed order; this is the inverse of the
    worker-side encoding, so the values are exactly what
    ``SweepRunner.run_spec`` would have produced locally.
    """
    if result.get("status") != "done":
        raise ValueError(f"campaign not done: {result.get('status')!r}")
    outcomes = []
    for wire in result["outcomes"]:
        value = None
        if wire.get("error") is None:
            value = decode_value(wire["encoding"], wire["payload"])
        outcomes.append(
            SeedOutcome(
                seed=wire["seed"],
                value=value,
                error=wire.get("error"),
                cached=bool(wire.get("cached")),
                elapsed_s=float(wire.get("elapsed_s") or 0.0),
            )
        )
    return outcomes


def merged_values(result: dict) -> list[Any]:
    """Values in seed order; raises :class:`SweepError` on failures."""
    outcomes = seed_outcomes(result)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        raise SweepError(result.get("campaign", "campaign"), failures)
    return [outcome.value for outcome in outcomes]


def result_report(result: dict):
    """A done ``/v1/result`` document as a
    :class:`~repro.analysis.report.Report` (``repro submit --wait``):
    seed counts and each failed seed's last error line; exit code 1 if
    any seed failed."""
    from repro.analysis.report import Report

    outcomes = seed_outcomes(result)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    cached = sum(1 for outcome in outcomes if outcome.cached)
    lines = [
        f"campaign {result['campaign']} done in {result['elapsed_s']:.3f}s: "
        f"{len(outcomes)} seed(s), {cached} cached, "
        f"{len(failures)} failure(s)"
    ]
    for outcome in failures:
        first_line = (outcome.error or "").strip().splitlines()[-1:]
        lines.append(f"  seed {outcome.seed}: {first_line[0] if first_line else '?'}")
    return Report("\n".join(lines), result, 1 if failures else 0)


def campaign_report(report: dict):
    """A ``/v1/report`` post-mortem as a
    :class:`~repro.analysis.report.Report` (``repro report``)."""
    from repro.analysis.report import Report

    fleet_block = report.get("fleet", {})
    merged = fleet_block.get("merged", {})
    return Report(
        f"campaign {report['campaign']} [{report['status']}]: "
        f"{report['seeds']} seed(s), {report['cached']} cached, "
        f"{report['failed']} failed, {report['requeues']} requeue(s), "
        f"{report['retries']} retry(ies)\n"
        f"  fleet: {fleet_block.get('sources', 0)} telemetry "
        f"source(s), {len(merged.get('counters', {}))} counter(s), "
        f"{len(merged.get('histograms', {}))} histogram(s)",
        report,
    )


def status_table(status: dict, report: dict) -> str:
    """One campaign's live ``/v1/status`` and ``/v1/report`` documents
    as a fixed-width table (``repro status``)."""
    eta = status.get("eta_s")
    lines = [
        f"campaign {status['campaign']} [{status['status']}]  "
        f"label: {status.get('label', '?')}",
        f"  seeds: {status['seeds']}  pending: {status['pending']}  "
        f"cached: {status['cached']}  failed: {status['failed']}",
        f"  jobs: {status['jobs']}  done: {status['jobs_done']}  "
        f"queue: {status.get('queue_depth', '?')}  "
        f"leased: {status.get('leased', '?')}",
        f"  elapsed: {status.get('elapsed_s', 0):.1f}s  "
        f"rate: {status.get('seeds_per_s', 0):.2f} seeds/s  "
        f"eta: {f'{eta:.1f}s' if isinstance(eta, (int, float)) else '?'}",
        "",
        f"  {'job':<24} {'state':<8} {'attempt':>7} {'requeues':>8} "
        f"{'worker':<8} {'seeds'}",
    ]
    for job in report.get("jobs", []):
        seeds = ",".join(str(seed) for seed in job.get("seeds", []))
        if len(seeds) > 24:
            seeds = seeds[:21] + "..."
        lines.append(
            f"  {job['job']:<24} {job['state']:<8} {job['attempt']:>7} "
            f"{job['requeues']:>8} {str(job.get('worker') or '-'):<8} {seeds}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Server.
# ---------------------------------------------------------------------------


class ServiceServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`Coordinator`."""

    daemon_threads = True
    coordinator: Coordinator
    thread: threading.Thread | None = None
    #: monotonic time of the last *client* request served (submit,
    #: status/result/report reads).  Worker chatter (lease polling,
    #: heartbeats) is excluded, so drain logic can tell "a client is
    #: still reading results" from "idle workers are polling".
    last_request: float = 0.0

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown(self) -> None:  # idempotent for LocalService.close()
        super().shutdown()
        if self.thread is not None and self.thread.is_alive():
            self.thread.join(timeout=5.0)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ServiceServer

    def log_message(self, format: str, *args) -> None:
        pass  # the coordinator's report is the observable surface

    # -- plumbing ------------------------------------------------------------

    def _send(self, payload: dict, status: int = 200) -> None:
        body = json.dumps({"protocol": PROTOCOL, **payload}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        data = json.loads(raw or b"{}")
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _send_text(self, body: str, content_type: str, status: int = 200) -> None:
        raw = body.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def _dispatch(self, handler) -> None:
        tail = self.path.split("?")[0].rstrip("/").rsplit("/", 1)[-1]
        # Worker chatter and scrapers don't count as client activity —
        # a Prometheus poller must not keep a draining server alive.
        if tail not in ("lease", "heartbeat", "metrics"):
            self.server.last_request = time.monotonic()
        try:
            handler()
        except KeyError as exc:
            self._send({"error": str(exc)}, status=404)
        except (ValueError, TypeError) as exc:
            self._send({"error": str(exc)}, status=400)
        except Exception as exc:  # never leak a stack as HTML
            self._send({"error": f"{type(exc).__name__}: {exc}"}, status=500)

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch(self._get)

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch(self._post)

    def _get(self) -> None:
        coordinator = self.server.coordinator
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        if parts == ["metrics"]:
            # Prometheus text exposition of the coordinator-process
            # fleet registry (empty but valid when telemetry is off).
            self._send_text(
                fleet.prometheus_text(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif parts == ["v1", "ping"]:
            self._send({"ok": True})
        elif parts == ["v1", "workers"]:
            self._send({"workers": coordinator.workers()})
        elif parts == ["v1", "campaigns"]:
            self._send({"campaigns": coordinator.campaigns()})
        elif len(parts) == 3 and parts[0] == "v1":
            kind, campaign_id = parts[1], parts[2]
            if kind == "status":
                self._send(coordinator.status(campaign_id))
            elif kind == "result":
                self._send(coordinator.result(campaign_id))
            elif kind == "report":
                self._send(coordinator.report(campaign_id))
            else:
                self._send({"error": f"unknown endpoint {self.path!r}"}, 404)
        else:
            self._send({"error": f"unknown endpoint {self.path!r}"}, 404)

    def _post(self) -> None:
        coordinator = self.server.coordinator
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        if len(parts) != 2 or parts[0] != "v1":
            self._send({"error": f"unknown endpoint {self.path!r}"}, 404)
            return
        body = self._body()
        action = parts[1]
        if action == "submit":
            spec = ScenarioSpec.from_dict(body["spec"])
            self._send(coordinator.submit(spec))
        elif action == "register":
            self._send({"worker": coordinator.register(body.get("info"))})
        elif action == "lease":
            job = coordinator.lease(_required(body, "worker"))
            self._send({"job": job})
        elif action == "heartbeat":
            self._send(
                coordinator.heartbeat(
                    _required(body, "worker"), _required(body, "job")
                )
            )
        elif action == "complete":
            self._send(
                coordinator.complete(
                    _required(body, "worker"),
                    _required(body, "job"),
                    body.get("outcomes") or [],
                    exec_info=body.get("exec"),
                    telemetry=body.get("telemetry"),
                )
            )
        elif action == "fail":
            self._send(
                coordinator.fail(
                    _required(body, "worker"),
                    _required(body, "job"),
                    body.get("error") or "worker-reported failure",
                )
            )
        else:
            self._send({"error": f"unknown endpoint {self.path!r}"}, 404)


def _required(body: dict, field: str) -> Any:
    value = body.get(field)
    if value is None:
        raise ValueError(f"missing required field {field!r}")
    return value


def serve(
    coordinator: Coordinator, host: str = "127.0.0.1", port: int = 0
) -> ServiceServer:
    """Start the HTTP API on a background thread; returns the server.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.url``).  Call ``server.shutdown()`` to stop.
    """
    server = ServiceServer((host, port), _Handler)
    server.coordinator = coordinator
    thread = threading.Thread(
        target=server.serve_forever, name="sweep-service-http", daemon=True
    )
    server.thread = thread
    thread.start()
    return server


# ---------------------------------------------------------------------------
# Clients.
# ---------------------------------------------------------------------------


class HttpClient:
    """Coordinator client over HTTP (stdlib ``urllib``)."""

    def __init__(self, base_url: str, timeout_s: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    def _request(self, path: str, body: dict | None = None) -> dict:
        url = f"{self.base_url}{path}"
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            url,
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as reply:
                payload = json.loads(reply.read())
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read())
            except ValueError:
                payload = {"error": str(exc)}
            raise ServiceError(
                exc.code, payload.get("error", str(exc))
            ) from None
        if payload.get("protocol") != PROTOCOL:
            raise ServiceError(
                502, f"not a sweep service: protocol {payload.get('protocol')!r}"
            )
        return payload

    # -- liveness ------------------------------------------------------------

    def ping(self) -> bool:
        try:
            return bool(self._request("/v1/ping").get("ok"))
        except (OSError, ServiceError):
            return False

    def connect(self, timeout_s: float = 30.0, poll_s: float = 0.2) -> None:
        """Wait for the coordinator to come up (CI race absorber)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.ping():
                return
            time.sleep(poll_s)
        raise ServiceError(
            503, f"no sweep service at {self.base_url} after {timeout_s:.0f}s"
        )

    # -- client surface ------------------------------------------------------

    def submit(self, spec: ScenarioSpec) -> dict:
        return self._request("/v1/submit", {"spec": spec.to_dict()})

    def status(self, campaign_id: str) -> dict:
        return self._request(f"/v1/status/{campaign_id}")

    def result(self, campaign_id: str) -> dict:
        return self._request(f"/v1/result/{campaign_id}")

    def report(self, campaign_id: str) -> dict:
        return self._request(f"/v1/report/{campaign_id}")

    def campaigns(self) -> list[dict]:
        return self._request("/v1/campaigns")["campaigns"]

    def workers(self) -> list[dict]:
        return self._request("/v1/workers")["workers"]

    def metrics_text(self) -> str:
        """The coordinator's ``GET /metrics`` Prometheus exposition."""
        url = f"{self.base_url}/metrics"
        with urllib.request.urlopen(url, timeout=self.timeout_s) as reply:
            return reply.read().decode("utf-8")

    def wait(
        self,
        campaign_id: str,
        timeout_s: float = 600.0,
        poll_s: float = 0.1,
    ) -> dict:
        """Poll until the campaign is done; returns the result document."""
        deadline = time.monotonic() + timeout_s
        while True:
            result = self.result(campaign_id)
            if result.get("status") == "done":
                return result
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"campaign {campaign_id} still {result.get('status')!r} "
                    f"after {timeout_s:.0f}s ({result.get('pending')} pending)"
                )
            time.sleep(poll_s)

    # -- worker surface ------------------------------------------------------

    def register(self, info: dict | None = None) -> str:
        return self._request("/v1/register", {"info": info or {}})["worker"]

    def lease(self, worker_id: str) -> dict | None:
        return self._request("/v1/lease", {"worker": worker_id})["job"]

    def heartbeat(self, worker_id: str, job_id: str) -> dict:
        return self._request(
            "/v1/heartbeat", {"worker": worker_id, "job": job_id}
        )

    def complete(
        self,
        worker_id: str,
        job_id: str,
        outcomes: list[dict],
        exec_info: dict | None = None,
        telemetry: dict | None = None,
    ) -> dict:
        body: dict[str, Any] = {
            "worker": worker_id,
            "job": job_id,
            "outcomes": outcomes,
        }
        if exec_info is not None:
            body["exec"] = exec_info
        if telemetry is not None:
            body["telemetry"] = telemetry
        return self._request("/v1/complete", body)

    def fail(self, worker_id: str, job_id: str, error: str) -> dict:
        return self._request(
            "/v1/fail", {"worker": worker_id, "job": job_id, "error": error}
        )


class ServiceError(RuntimeError):
    """An HTTP-level service error (status code + message)."""

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(f"[{status}] {message}")


class LocalClient:
    """The same client surface, directly against an in-process
    :class:`Coordinator` — no sockets, for unit tests and benchmarks.

    The :data:`FORWARDED` client calls and worker lease protocol are
    the coordinator's own methods of the same signature; every other
    coordinator attribute stays out of reach, as over HTTP.
    """

    #: :class:`HttpClient` methods that are the coordinator's own.
    FORWARDED = (
        "submit",
        "status",
        "result",
        "report",
        "campaigns",
        "workers",
        "register",
        "lease",
        "heartbeat",
        "complete",
        "fail",
    )

    def __init__(self, coordinator: Coordinator):
        self.coordinator = coordinator

    def __getattr__(self, name: str) -> Any:
        if name not in self.FORWARDED:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        return getattr(self.coordinator, name)

    def ping(self) -> bool:
        return True

    def connect(self, timeout_s: float = 0.0, poll_s: float = 0.0) -> None:
        pass

    def metrics_text(self) -> str:
        return fleet.prometheus_text()

    def wait(
        self, campaign_id: str, timeout_s: float = 600.0, poll_s: float = 0.05
    ) -> dict:
        """:meth:`HttpClient.wait`, polling the coordinator directly."""
        return HttpClient.wait(self, campaign_id, timeout_s, poll_s)


# ---------------------------------------------------------------------------
# Local mode: full HTTP path on one host.
# ---------------------------------------------------------------------------


class LocalService:
    """Coordinator + HTTP API + N in-process workers, on loopback.

    The workers are threads, but they speak to the coordinator over the
    real HTTP API — registration, leases, heartbeats, completion — so a
    test or driver that runs through :class:`LocalService` exercises
    the same code path as a multi-host fleet.  Use as a context
    manager::

        with LocalService(store_dir, workers=2) as service:
            values = service.run_spec(spec)
    """

    def __init__(
        self,
        store_dir: str | Path,
        workers: int = 2,
        config: CoordinatorConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        from repro.service.worker import Worker

        # Operating a fleet implies observing it; plain library use
        # never reaches this path.
        fleet.enable()
        self.store = ResultStore(store_dir)
        self.coordinator = Coordinator(self.store, config)
        self.server = serve(self.coordinator, host, port)
        self.client = HttpClient(self.server.url)
        self._stop = threading.Event()
        self.workers = []
        self._threads = []
        for index in range(workers):
            worker = Worker(
                HttpClient(self.server.url),
                info={"local": True, "index": index},
            )
            thread = threading.Thread(
                target=worker.run,
                kwargs={"stop": self._stop},
                name=f"sweep-service-worker-{index}",
                daemon=True,
            )
            self.workers.append(worker)
            self._threads.append(thread)
            thread.start()

    @property
    def url(self) -> str:
        return self.server.url

    def submit_and_wait(self, spec: ScenarioSpec, timeout_s: float = 600.0) -> dict:
        status = self.client.submit(spec)
        return self.client.wait(status["campaign"], timeout_s=timeout_s)

    def run_spec(self, spec: ScenarioSpec, timeout_s: float = 600.0) -> list[Any]:
        """Submit, wait, and decode — the service-side ``run_spec``."""
        return merged_values(self.submit_and_wait(spec, timeout_s=timeout_s))

    def stop_workers(self) -> None:
        """Stop the in-process workers; the HTTP API keeps serving."""
        self._stop.set()

    def serve_until(self, campaigns: int) -> int:
        """Serve until *campaigns* campaigns are done (``<= 0``: forever),
        then stop the local workers and return once the API has been
        quiet for a second; returns the campaigns done."""
        while campaigns <= 0:
            time.sleep(3600.0)
        while True:
            done = sum(1 for c in self.coordinator.campaigns() if c["status"] == "done")
            if done < campaigns:
                time.sleep(0.2)
                continue
            # Wind down the local workers (their lease polling would
            # otherwise never let the API go quiet), then linger until
            # clients finish draining results: a `submit --wait` still
            # has result/report reads in flight when its campaign
            # completes.
            self.stop_workers()
            if time.monotonic() - self.server.last_request > 1.0:
                return done
            time.sleep(0.1)

    def close(self) -> None:
        self.stop_workers()
        for thread in self._threads:
            thread.join(timeout=10.0)
        self.server.shutdown()
        self.server.server_close()

    def __enter__(self) -> "LocalService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
