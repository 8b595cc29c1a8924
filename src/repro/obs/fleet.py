"""Fleet telemetry: the experiment *infrastructure* observing itself.

:mod:`repro.obs` instruments the simulated world; this module points
the same machinery at the machinery — the sweep-service coordinator,
workers, result store/cache, snapshot store and ``SweepRunner`` — so a
running campaign can be operated like production infrastructure:

* a **process-global fleet registry** (:class:`FleetTelemetry`) reusing
  :class:`~repro.obs.metrics.MetricsRegistry`, guarded at every site by
  the same null-object idiom as :mod:`repro.obs.context`::

      f = fleet.ACTIVE
      if f.enabled:
          f.inc("fleet.sweep.cache_hits")

  Disabled (the library default) each site costs one global load and
  one attribute check; service entry points (``repro serve``, ``repro
  worker``, :class:`~repro.service.http.LocalService`) enable it unless
  ``REPRO_FLEET_TELEMETRY=0``.
* **Prometheus text exposition** (:func:`prometheus_text`), served by
  the sweep service at ``GET /metrics`` and checkable with
  :func:`validate_prometheus_text`.
* **fleet-metrics/v1 snapshots** (:func:`snapshot_document`): workers
  ship theirs inside completion reports, and every campaign report
  embeds the coordinator's plus a cross-worker merge via
  :func:`~repro.obs.metrics.aggregate_snapshots`.
* a **fleet trace** (:func:`fleet_trace_bus`): the campaign report's
  coordinator-stamped job timelines as an
  :class:`~repro.obs.bus.EventBus` — one queue track plus one track per
  worker — rendered by the simulation's own Perfetto exporter
  (:func:`~repro.obs.export.trace_events`/``write_trace``) and valid
  under :func:`~repro.obs.export.validate_trace_data`.

The hard invariant mirrors PR 3's: recording draws no randomness and
takes no scheduling decision, so enabling fleet telemetry leaves every
``Trace.fingerprint()`` and every per-seed result byte-identical
(asserted by ``tests/test_fleet_telemetry.py``).
"""

from __future__ import annotations

import json
import os
import re
import socket
import threading
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from repro.obs.bus import EventBus
from repro.obs.export import trace_events
from repro.obs.metrics import (
    MetricsRegistry,
    aggregate_snapshots,
    parse_labeled,
)

__all__ = [
    "FLEET_FORMAT",
    "FLEET_TIME_BUCKETS_NS",
    "FleetTelemetry",
    "NullFleet",
    "ACTIVE",
    "active",
    "enable",
    "disable",
    "enabled_by_env",
    "enable_from_env",
    "fleet_capture",
    "snapshot_document",
    "merge_fleet_documents",
    "prometheus_text",
    "validate_prometheus_text",
    "fleet_trace_bus",
    "fleet_trace_events",
    "fleet_trace_labels",
]

#: Format tag of a fleet metrics snapshot (embedded in campaign reports).
FLEET_FORMAT = "fleet-metrics/v1"

#: Environment knob: set to ``0``/``off``/``false`` to keep fleet
#: telemetry disabled even in service processes.
FLEET_ENV = "REPRO_FLEET_TELEMETRY"

#: Histogram bounds for infrastructure latencies: 1 µs .. 600 s.  Wider
#: than the simulation's default buckets because leases and jobs live on
#: human time scales; fixed bounds keep worker snapshots exactly
#: mergeable, same as the per-seed metrics.
FLEET_TIME_BUCKETS_NS: tuple[int, ...] = (
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
    5_000_000_000,
    10_000_000_000,
    30_000_000_000,
    60_000_000_000,
    120_000_000_000,
    300_000_000_000,
    600_000_000_000,
)


class FleetTelemetry:
    """The enabled fleet handle: a lock-guarded metrics registry.

    Unlike the per-run :class:`~repro.obs.context.Observation` (one
    single-threaded simulation per process), fleet telemetry is updated
    from coordinator handler threads, worker threads and heartbeat
    threads at once, so every mutation goes through one process lock.
    The operations are microsecond-scale against millisecond-scale
    infrastructure events — contention is not a concern.
    """

    __slots__ = ("enabled", "metrics", "_lock")

    def __init__(self) -> None:
        self.enabled = True
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment the counter *name*."""
        with self._lock:
            self.metrics.counter(name).inc(amount)

    def set_gauge(self, name: str, value: int | float) -> None:
        """Record the current level of the gauge *name*."""
        with self._lock:
            self.metrics.gauge(name).set(value)

    def observe(
        self,
        name: str,
        value: int | float,
        bounds: Sequence[int] | None = None,
    ) -> None:
        """Record one histogram sample (fleet time bounds by default)."""
        with self._lock:
            self.metrics.histogram(
                name, bounds or FLEET_TIME_BUCKETS_NS
            ).observe(value)

    def counter_value(self, name: str) -> int:
        """The current value of counter *name* (0 if never incremented)."""
        with self._lock:
            return self.metrics.counter(name).value

    def snapshot(self) -> dict[str, Any]:
        """A consistent :meth:`MetricsRegistry.snapshot` of the registry."""
        with self._lock:
            return self.metrics.snapshot()


class NullFleet:
    """The disabled stand-in: only its ``enabled`` flag is ever read."""

    __slots__ = ()

    enabled = False
    metrics = None

    def snapshot(self) -> dict[str, Any]:
        return MetricsRegistry().snapshot()


#: The process-wide fleet handle read by every instrumented site.
ACTIVE: FleetTelemetry | NullFleet = NullFleet()


def active() -> FleetTelemetry | NullFleet:
    """The currently installed fleet telemetry handle."""
    return ACTIVE


def enable(fresh: bool = False) -> FleetTelemetry:
    """Install (or return) the process-global fleet telemetry.

    Idempotent: a second call keeps the accumulated metrics unless
    *fresh* asks for a clean registry.
    """
    global ACTIVE
    if fresh or not ACTIVE.enabled:
        ACTIVE = FleetTelemetry()
    assert isinstance(ACTIVE, FleetTelemetry)
    return ACTIVE


def disable() -> None:
    """Restore the disabled null handle (drops accumulated metrics)."""
    global ACTIVE
    ACTIVE = NullFleet()


def enabled_by_env(environ: dict[str, str] | None = None) -> bool:
    """Whether the environment permits fleet telemetry (default yes)."""
    value = (os.environ if environ is None else environ).get(FLEET_ENV, "1")
    return value.strip().lower() not in ("0", "no", "off", "false")


def enable_from_env() -> FleetTelemetry | NullFleet:
    """Enable fleet telemetry unless ``REPRO_FLEET_TELEMETRY`` says no.

    Service entry points call this: operating a fleet implies observing
    it, while plain library use stays on the disabled path.
    """
    if enabled_by_env():
        return enable()
    return ACTIVE


@contextmanager
def fleet_capture() -> Iterator[FleetTelemetry]:
    """Enable a fresh fleet registry for a ``with`` block (tests)."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = FleetTelemetry()
    try:
        yield ACTIVE
    finally:
        ACTIVE = previous


# ---------------------------------------------------------------------------
# Snapshots: the fleet-metrics/v1 document and its cross-host merge.
# ---------------------------------------------------------------------------


def snapshot_document(
    telemetry: FleetTelemetry | NullFleet | None = None,
) -> dict[str, Any]:
    """One process's fleet metrics as a ``fleet-metrics/v1`` document."""
    handle = telemetry if telemetry is not None else ACTIVE
    return {
        "format": FLEET_FORMAT,
        "host": socket.gethostname(),
        "pid": os.getpid(),
        "enabled": bool(handle.enabled),
        "metrics": handle.snapshot(),
    }


def merge_fleet_documents(
    documents: Sequence[dict[str, Any] | None],
) -> dict[str, Any]:
    """Merge per-process fleet documents across the fleet.

    Counters, gauge peaks and histograms merge with the same
    :func:`~repro.obs.metrics.aggregate_snapshots` semantics used for
    per-seed simulation metrics — one "seed" here is one process.
    """
    present = [doc for doc in documents if doc]
    return {
        "format": FLEET_FORMAT,
        "sources": len(present),
        "merged": aggregate_snapshots(
            [doc.get("metrics", {}) for doc in present]
        ),
    }


# ---------------------------------------------------------------------------
# Prometheus text exposition (version 0.0.4, the /metrics content type).
# ---------------------------------------------------------------------------

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

#: Sample line of the exposition format: name, optional labels, value.
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>\S+)$"
)


def _prom_name(name: str) -> str:
    """A registry family name as a legal Prometheus metric name."""
    cleaned = _NAME_SANITIZE.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return cleaned


def _prom_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    """Render a label dict as ``{k="v",...}`` (empty string when none)."""
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{_prom_name(key)}="{_escape_label(str(merged[key]))}"'
        for key in sorted(merged)
    )
    return f"{{{inner}}}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_value(value: int | float | None) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_text(snapshot: dict[str, Any] | None = None) -> str:
    """Render a registry snapshot in the Prometheus text format.

    *snapshot* defaults to the active fleet handle's.  Counters map to
    ``counter`` families, gauges to ``gauge`` families (last value,
    plus a ``_peak`` companion), histograms to cumulative
    ``_bucket{le=...}`` series with ``_sum``/``_count``, the standard
    client-library shape.  Label-encoded registry names
    (:func:`~repro.obs.metrics.labeled`) become real Prometheus labels.
    """
    if snapshot is None:
        snapshot = ACTIVE.snapshot()
    lines: list[str] = []

    def type_line(family: str, kind: str, seen: set[str]) -> None:
        if family not in seen:
            lines.append(f"# TYPE {family} {kind}")
            seen.add(family)

    typed: set[str] = set()
    for name in sorted(snapshot.get("counters", {})):
        family, labels = parse_labeled(name)
        family = _prom_name(family)
        type_line(family, "counter", typed)
        value = snapshot["counters"][name]
        lines.append(f"{family}{_prom_labels(labels)} {_prom_value(value)}")

    for name in sorted(snapshot.get("gauges", {})):
        family, labels = parse_labeled(name)
        family = _prom_name(family)
        entry = snapshot["gauges"][name]
        type_line(family, "gauge", typed)
        lines.append(
            f"{family}{_prom_labels(labels)} {_prom_value(entry['value'])}"
        )
        type_line(f"{family}_peak", "gauge", typed)
        lines.append(
            f"{family}_peak{_prom_labels(labels)} {_prom_value(entry['peak'])}"
        )

    for name in sorted(snapshot.get("histograms", {})):
        family, labels = parse_labeled(name)
        family = _prom_name(family)
        entry = snapshot["histograms"][name]
        type_line(family, "histogram", typed)
        cumulative = 0
        for bound, bucket_count in zip(entry["bounds"], entry["counts"]):
            cumulative += bucket_count
            lines.append(
                f"{family}_bucket"
                f"{_prom_labels(labels, {'le': _prom_value(bound)})} "
                f"{cumulative}"
            )
        lines.append(
            f"{family}_bucket{_prom_labels(labels, {'le': '+Inf'})} "
            f"{entry['count']}"
        )
        lines.append(
            f"{family}_sum{_prom_labels(labels)} {_prom_value(entry['sum'])}"
        )
        lines.append(
            f"{family}_count{_prom_labels(labels)} {entry['count']}"
        )
    return "\n".join(lines) + "\n"


def validate_prometheus_text(text: str) -> list[str]:
    """Check *text* against the exposition format; returns problems.

    An empty list means well-formed: every sample line parses as
    ``name{labels} value`` with a float-parseable value, ``# TYPE``
    declarations are legal, no exact series repeats, and histogram
    ``_bucket`` series are cumulative (non-decreasing in ``le`` order).
    This is the shape check CI's telemetry-smoke job and the unit tests
    share.
    """
    problems: list[str] = []
    seen_series: set[str] = set()
    bucket_runs: dict[str, float] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            fields = line.split()
            if len(fields) >= 2 and fields[1] == "TYPE":
                if len(fields) != 4 or fields[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    problems.append(f"line {number}: malformed TYPE comment")
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            problems.append(f"line {number}: unparseable sample {line!r}")
            continue
        try:
            value = float(match.group("value"))
        except ValueError:
            problems.append(
                f"line {number}: non-numeric value {match.group('value')!r}"
            )
            continue
        series = f"{match.group('name')}{match.group('labels') or ''}"
        if series in seen_series:
            problems.append(f"line {number}: duplicate series {series!r}")
        seen_series.add(series)
        name = match.group("name")
        if name.endswith("_bucket"):
            # Cumulative within one histogram: strip the le label so
            # successive buckets of the same series compare.
            run_key = name + re.sub(
                r'le="[^"]*",?', "", match.group("labels") or ""
            )
            previous = bucket_runs.get(run_key)
            if previous is not None and value < previous:
                problems.append(
                    f"line {number}: bucket series {name!r} not cumulative "
                    f"({value} after {previous})"
                )
            bucket_runs[run_key] = value
    return problems


# ---------------------------------------------------------------------------
# The fleet trace: campaign job timelines as a Perfetto timeline.
# ---------------------------------------------------------------------------

#: The track of the time each job spent pending; workers get one track each.
_QUEUE_TRACK = "coordinator queue"

#: Timeline events that end a lease (close the worker-track span).
_LEASE_ENDS = ("done", "requeued", "failed")


def fleet_trace_bus(report: dict[str, Any]) -> EventBus:
    """A campaign report's job timelines as an :class:`EventBus`.

    One *coordinator queue* track (time each job spent pending, requeue
    instants) and one ``worker <id>`` track per worker (each lease
    attempt as a complete span, the final attempt annotated with the
    worker-side execution stats shipped back in the completion report).
    Timestamps are integer nanoseconds of host time since the
    campaign's submission; the events carry no separate wall stamp.
    """
    jobs = report.get("jobs", [])
    stamps = [
        event["t"]
        for job in jobs
        for event in job.get("timeline", [])
        if isinstance(event.get("t"), (int, float))
    ]
    anchor = report.get("submitted_at")
    if not isinstance(anchor, (int, float)):
        anchor = min(stamps) if stamps else 0.0

    def rel_ns(t: float) -> int:
        return round(max(0.0, t - anchor) * 1e9)

    bus = EventBus()
    for job in jobs:
        name = job.get("job", "?")
        timeline = [
            event
            for event in job.get("timeline", [])
            if isinstance(event.get("t"), (int, float))
        ]
        pending_since: float | None = None
        for index, event in enumerate(timeline):
            kind = event.get("event")
            t = event["t"]
            if kind in ("queued", "requeued"):
                pending_since = t
                if kind == "requeued":
                    bus.instant(
                        _QUEUE_TRACK, f"requeue {name}", rel_ns(t), wall_ns=None,
                        job=name, attempt=event.get("attempt"),
                        reason=event.get("reason"),
                    )
            elif kind == "leased":
                if pending_since is not None:
                    bus.span(
                        _QUEUE_TRACK, f"{name} pending",
                        rel_ns(pending_since), rel_ns(t), wall_ns=None,
                        job=name, attempt=event.get("attempt"),
                    )
                    pending_since = None
                if not event.get("worker"):
                    continue
                track = f"worker {event['worker']}"
                end = next(
                    (
                        later
                        for later in timeline[index + 1:]
                        if later.get("event") in _LEASE_ENDS
                    ),
                    None,
                )
                args: dict[str, Any] = {
                    "job": name,
                    "seeds": list(job.get("seeds", [])),
                    "attempt": event.get("attempt"),
                }
                if end is None:
                    bus.instant(
                        track, f"{name} executing", rel_ns(t), wall_ns=None, **args
                    )
                    continue
                args["outcome"] = end.get("event")
                if end.get("reason"):
                    args["reason"] = end.get("reason")
                if end.get("event") == "done" and job.get("exec"):
                    args["exec"] = job["exec"]
                start = rel_ns(t)
                bus.span(
                    track, f"{name} attempt {event.get('attempt')}",
                    start, max(start, rel_ns(end["t"])), wall_ns=None, **args,
                )
        if pending_since is not None:
            bus.instant(
                _QUEUE_TRACK, f"{name} pending", rel_ns(pending_since), wall_ns=None,
                job=name, state=job.get("state"),
            )
    return bus


def fleet_trace_events(report: dict[str, Any]) -> list[dict[str, Any]]:
    """Render a campaign report's fleet trace as ``trace_event`` dicts.

    The one process is named after the campaign; the result passes
    :func:`~repro.obs.export.validate_trace_data`.  Write the file with
    ``write_trace(fleet_trace_bus(report), path, **fleet_trace_labels(report))``.
    """
    return trace_events(
        fleet_trace_bus(report), process=fleet_trace_labels(report)["process"]
    )


def fleet_trace_labels(report: dict[str, Any]) -> dict[str, Any]:
    """The process name and ``otherData`` fields of a campaign's trace."""
    return {
        "process": f"campaign {report.get('campaign', '?')}",
        "generator": "repro.obs.fleet",
        "campaign": report.get("campaign"),
    }
