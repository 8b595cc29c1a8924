"""Causal flow tracing: per-frame hop records across every layer seam.

The paper's argument is per-frame — the stock brake assistant drops and
misaligns individual camera frames (Fig. 5) while DEAR delivers every
frame within its ``t + D + L + E`` bound — so the observability layer
needs request-tracing-style causal linkage, not just per-layer spans.
This module adds it: every camera frame owns a **flow** keyed by its
sequence number, and each layer it traverses appends a hop record
(layer, site name, sim timestamp).  From the hop chain we derive

* per-hop latency histograms (``flow.hop.<layer>_ns``) and an
  end-to-end histogram (``flow.e2e_latency_ns``) in the shared metrics
  registry, so they merge across seeds like every other metric;
* **drop attribution**: the first layer that loses a frame tags it with
  exactly one ``(layer, cause)`` pair (first-wins — a fan-out frame
  whose copies die in two places keeps the first verdict);
* a **critical-path report**: for each delivered frame, which
  consecutive-hop segment consumed the most of its deadline slack.

Correlation, not propagation
----------------------------

Flow IDs are *never* put on the wire.  Payload bytes feed the switch's
``size_bytes * ns_per_byte`` serialization delay, so even one extra
tag byte would perturb every latency in the simulation.  Instead the
registry correlates observation-side:

* **kernel context** — within a synchronous call chain (camera send →
  switch, NIC deliver → socket → SOME/IP dispatch → DEAR transactor)
  the registry carries a *current flow*; instrumentation sites read it
  without touching the frame.  The current flow never survives a sim
  yield point.
* **frame identity** — across the switch's scheduled delivery the flow
  rides an ``id(frame)`` map (frames are never mutated and uniquely
  alive for the duration of the hop; duplicate faults deliver the *same*
  object twice, so entries carry a refcount).
* **event identity** — across the reactor scheduler's event queue the
  flow rides an ``id(value)`` map bound at ``schedule_physical`` /
  ``schedule_at_tag`` and resolved at ``_begin_tag``.
* **payload identity** — wire dicts and app dataclasses already carry
  the camera sequence (``seq`` on frames, ``frame_seq`` downstream),
  so asynchronous seams (skeleton TX from a reaction body, one-slot
  buffer writes from pool workers) self-correlate via
  :func:`flow_id_of`.

Like all of ``repro.obs`` the enabled path consumes **zero RNG draws**
and leaves ``Trace.fingerprint()`` byte-identical; the disabled path is
the existing ``o is not None`` check plus an ``o.flows is None`` test.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import MetricsRegistry, labeled, percentile

__all__ = [
    "FlowRegistry",
    "FlowRecord",
    "Hop",
    "flow_id_of",
    "attribute_drop",
    "flow_report",
    "merge_flow_reports",
    "validate_flow_report",
    "FAULT_DROP_CAUSES",
    "LAYER_SENSOR",
    "LAYER_SWITCH",
    "LAYER_NIC",
    "LAYER_SOCKET",
    "LAYER_SOMEIP",
    "LAYER_DEAR",
    "LAYER_REACTOR",
    "LAYER_APP",
    "LAYER_ACTUATOR",
    "CAUSE_RANDOM_DROP",
    "CAUSE_FAULT_DROP",
    "CAUSE_FAULT_PARTITION",
    "CAUSE_FAULT_OUTAGE",
    "CAUSE_FCS",
    "CAUSE_UNBOUND_PORT",
    "CAUSE_QUEUE_OVERFLOW",
    "CAUSE_MALFORMED",
    "CAUSE_LATE",
    "CAUSE_DEADLINE",
    "CAUSE_BUFFER_OVERWRITE",
    "CAUSE_FANIN_MISMATCH",
    "CAUSE_NO_SUBSCRIBER",
    "CAUSE_NO_PRODUCER",
    "CAUSE_IN_FLIGHT",
]

# -- taxonomy ---------------------------------------------------------------

#: Hop layers, in pipeline order.  ``sensor`` is the camera sample,
#: ``actuator`` the brake command; everything else is a transit layer.
LAYER_SENSOR = "sensor"
LAYER_SWITCH = "switch"
LAYER_NIC = "nic"
LAYER_SOCKET = "socket"
LAYER_SOMEIP = "someip"
LAYER_DEAR = "dear"
LAYER_REACTOR = "reactor"
LAYER_APP = "app"
LAYER_ACTUATOR = "actuator"

#: Drop causes.  Each lost frame gets exactly one ``(layer, cause)``.
CAUSE_RANDOM_DROP = "random-drop"  # SwitchConfig.drop_probability
CAUSE_FAULT_DROP = "fault-drop"  # fault-plan link drop
CAUSE_FAULT_PARTITION = "fault-partition"  # fault-plan partition drop
CAUSE_FAULT_OUTAGE = "fault-outage"  # fault-plan node outage drop
CAUSE_FCS = "fcs-drop"  # corrupted payload dropped at the NIC
CAUSE_UNBOUND_PORT = "unbound-port"  # no socket bound at destination
CAUSE_QUEUE_OVERFLOW = "queue-overflow"  # socket rx queue full
CAUSE_MALFORMED = "malformed"  # SOME/IP header unpack failure
CAUSE_LATE = "late-drop"  # LatePolicy DROP / LAST_KNOWN without history
CAUSE_DEADLINE = "deadline-drop"  # drop_on_deadline_miss output drop
CAUSE_BUFFER_OVERWRITE = "buffer-overwrite"  # one-slot buffer overwrote unread
CAUSE_FANIN_MISMATCH = "fanin-mismatch"  # fan-in stage discarded a misaligned group
CAUSE_NO_SUBSCRIBER = "no-subscriber"  # published with no live subscriber
CAUSE_NO_PRODUCER = "no-producer"  # no producer active to publish it
CAUSE_IN_FLIGHT = "in-flight-at-end"  # report-time fallback, never recorded live

#: Map :class:`repro.faults.injector.FaultVerdict` drop kinds to causes.
FAULT_DROP_CAUSES = {
    "drop": CAUSE_FAULT_DROP,
    "partition-drop": CAUSE_FAULT_PARTITION,
    "outage-drop": CAUSE_FAULT_OUTAGE,
}


def flow_id_of(value: Any) -> int | None:
    """Best-effort flow extraction from a wire dict or app dataclass.

    Camera frames carry ``seq``; every derived message (lane, vehicles,
    brake command) carries ``frame_seq``.  Returns ``None`` for values
    that do not correlate (timer ticks, pulses, fault signals).
    """
    if isinstance(value, dict):
        flow = value.get("seq")
        if flow is None:
            flow = value.get("frame_seq")
    else:
        flow = getattr(value, "seq", None)
        if flow is None:
            flow = getattr(value, "frame_seq", None)
    return flow if isinstance(flow, int) and not isinstance(flow, bool) else None


class Hop:
    """One traversal record: (layer, site name, sim timestamp)."""

    __slots__ = ("layer", "name", "ts")

    def __init__(self, layer: str, name: str, ts: int):
        self.layer = layer
        self.name = name
        self.ts = ts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hop({self.layer!r}, {self.name!r}, ts={self.ts})"


class FlowRecord:
    """The life of one camera frame: hop chain plus final verdict."""

    __slots__ = ("flow_id", "born_ns", "hops", "drop", "delivered_ns")

    def __init__(self, flow_id: int, born_ns: int):
        self.flow_id = flow_id
        self.born_ns = born_ns
        self.hops: list[Hop] = [Hop(LAYER_SENSOR, "camera", born_ns)]
        #: ``(layer, cause, ts)`` of the first recorded loss, or ``None``.
        self.drop: tuple[str, str, int] | None = None
        self.delivered_ns: int | None = None


class FlowRegistry:
    """Per-observation store of flow records and correlation state.

    Lives as ``Observation.flows`` (``None`` unless the capture opted in
    with ``flows=True``), so instrumentation sites pay one extra
    ``is None`` check on the obs-enabled path and nothing at all when
    observability is off.
    """

    __slots__ = ("flows", "current", "_frames", "_events", "_metrics")

    def __init__(self, metrics: MetricsRegistry):
        #: All flows ever begun, keyed by flow id, insertion-ordered.
        self.flows: dict[int, FlowRecord] = {}
        #: The flow owning the current synchronous kernel call chain.
        self.current: int | None = None
        # id(frame) -> [flow_id, pending deliveries] across the switch.
        self._frames: dict[int, list[int]] = {}
        # id(value) -> flow_id across the reactor scheduler event queue.
        self._events: dict[int, int] = {}
        self._metrics = metrics

    # -- lifecycle ----------------------------------------------------------

    def begin(self, flow_id: int, ts: int) -> FlowRecord:
        """Start a flow at the sensor and make it the current flow."""
        record = FlowRecord(flow_id, ts)
        self.flows[flow_id] = record
        self.current = flow_id
        self._metrics.counter("flow.begun").inc()
        return record

    def known(self, flow_id: int | None) -> bool:
        return flow_id is not None and flow_id in self.flows

    def hop(self, flow_id: int, layer: str, name: str, ts: int) -> None:
        """Append a hop and observe the latency since the previous hop."""
        record = self.flows.get(flow_id)
        if record is None:
            return
        previous = record.hops[-1]
        record.hops.append(Hop(layer, name, ts))
        self._metrics.histogram(f"flow.hop.{layer}_ns").observe(
            max(0, ts - previous.ts)
        )

    def drop(self, flow_id: int, layer: str, cause: str, ts: int) -> None:
        """Attribute a loss.  First verdict wins; later ones are ignored.

        A flow's fan-out copies can die in several places (the lane copy
        overwritten while the frame copy proceeds); only the first loss
        is kept, and :meth:`deliver` clears it entirely — attribution
        means *the frame failed to reach the actuator*, not that some
        branch was lossy along the way.
        """
        record = self.flows.get(flow_id)
        if record is None or record.drop is not None:
            return
        if record.delivered_ns is not None:
            return
        record.drop = (layer, cause, ts)

    def deliver(self, flow_id: int, ts: int) -> None:
        """Mark actuator output: final hop plus the end-to-end histogram."""
        record = self.flows.get(flow_id)
        if record is None or record.delivered_ns is not None:
            return
        self.hop(flow_id, LAYER_ACTUATOR, "brake-command", ts)
        record.delivered_ns = ts
        record.drop = None
        self._metrics.counter("flow.delivered").inc()
        self._metrics.histogram("flow.e2e_latency_ns").observe(
            max(0, ts - record.born_ns)
        )

    # -- kernel-context current flow ---------------------------------------

    def swap_current(self, flow_id: int | None) -> int | None:
        """Set the current flow, returning the previous one to restore."""
        previous = self.current
        self.current = flow_id
        return previous

    def restore_current(self, previous: int | None) -> None:
        self.current = previous

    # -- cross-boundary correlation maps ------------------------------------

    def frame_sent(self, frame: Any, flow_id: int) -> None:
        """Register an in-flight frame (call once per scheduled delivery)."""
        entry = self._frames.get(id(frame))
        if entry is not None and entry[0] == flow_id:
            entry[1] += 1
        else:
            self._frames[id(frame)] = [flow_id, 1]

    def frame_arrived(self, frame: Any) -> int | None:
        """Resolve (and release) an in-flight frame back to its flow."""
        key = id(frame)
        entry = self._frames.get(key)
        if entry is None:
            return None
        entry[1] -= 1
        if entry[1] <= 0:
            del self._frames[key]
        return entry[0]

    def bind_event(self, value: Any) -> None:
        """Tie a scheduler event value to the current flow (if any)."""
        if self.current is not None and value is not None:
            self._events[id(value)] = self.current

    def event_arrived(self, value: Any) -> int | None:
        """Resolve (and release) a scheduler event value to its flow."""
        if value is None:
            return None
        return self._events.pop(id(value), None)


def attribute_drop(
    observation: Any,
    layer: str,
    cause: str,
    ts: int,
    flow_id: int | None = None,
) -> None:
    """Shared bookkeeping for every drop site.

    Always increments the unified ``drops_total{cause,layer}`` labeled
    counter (the registry-level reconciliation satellite); when flows
    are active, additionally attributes the loss to *flow_id* or, when
    omitted, the current flow.  Call only with observability enabled.
    """
    observation.metrics.counter(labeled("drops_total", layer=layer, cause=cause)).inc()
    flows = observation.flows
    if flows is None:
        return
    if flow_id is None:
        flow_id = flows.current
    if flow_id is not None:
        flows.drop(flow_id, layer, cause, ts)


# -- reporting --------------------------------------------------------------


def _critical_path(flows: dict[str, dict]) -> dict:
    """Per-segment latency stats over delivered flows.

    A *segment* is a consecutive hop pair ``layerA->layerB``; the
    dominant segment of a flow is the one that consumed the most of its
    end-to-end latency — i.e. where its deadline slack went.
    """
    segments: dict[str, list[int]] = {}
    dominant: dict[str, int] = {}
    for entry in flows.values():
        if entry["delivered_ns"] is None:
            continue
        worst_name = None
        worst_cost = -1
        hops = entry["hops"]
        for a, b in zip(hops, hops[1:]):
            name = f"{a[0]}->{b[0]}"
            cost = b[2] - a[2]
            segments.setdefault(name, []).append(cost)
            if cost > worst_cost:
                worst_cost = cost
                worst_name = name
        if worst_name is not None:
            entry["dominant_segment"] = worst_name
            dominant[worst_name] = dominant.get(worst_name, 0) + 1
    stats = {}
    for name in sorted(segments):
        values = segments[name]
        stats[name] = {
            "count": len(values),
            "mean_ns": sum(values) / len(values),
            "p95_ns": percentile(values, 0.95),
            "max_ns": max(values),
        }
    return {"segments": stats, "dominant": dict(sorted(dominant.items()))}


def flow_report(registry: FlowRegistry) -> dict:
    """Build a ``flow-report/v1`` document from a finished run.

    JSON-native throughout (string flow keys, list hops) so it survives
    the sweep cache's JSON round-trip unchanged.  Frames that neither
    delivered nor recorded a drop are counted as ``unattributed`` and
    then given the ``in-flight-at-end`` fallback cause at their last
    hop's layer — frames still traversing at the horizon, or (in the
    stock variant) frames whose data was consumed by a misaligned
    fusion without producing an actuator output for their sequence.
    """
    flows: dict[str, dict] = {}
    delivered = 0
    unattributed = 0
    drops_by_layer: dict[str, int] = {}
    drops_by_cause: dict[str, int] = {}
    e2e: list[int] = []
    for record in registry.flows.values():
        entry = {
            "born_ns": record.born_ns,
            "hops": [[hop.layer, hop.name, hop.ts] for hop in record.hops],
            "delivered_ns": record.delivered_ns,
            "drop": list(record.drop) if record.drop is not None else None,
        }
        if record.delivered_ns is not None:
            delivered += 1
            e2e.append(record.delivered_ns - record.born_ns)
        else:
            if record.drop is None:
                unattributed += 1
                last = record.hops[-1]
                entry["drop"] = [last.layer, CAUSE_IN_FLIGHT, last.ts]
            layer, cause, _ = entry["drop"]
            drops_by_layer[layer] = drops_by_layer.get(layer, 0) + 1
            drops_by_cause[cause] = drops_by_cause.get(cause, 0) + 1
        flows[str(record.flow_id)] = entry
    total = len(flows)
    summary = {
        "total": total,
        "delivered": delivered,
        "dropped": total - delivered,
        "unattributed": unattributed,
        "drops_by_layer": dict(sorted(drops_by_layer.items())),
        "drops_by_cause": dict(sorted(drops_by_cause.items())),
        "e2e_p50_ns": percentile(e2e, 0.5) if e2e else None,
        "e2e_p95_ns": percentile(e2e, 0.95) if e2e else None,
        "e2e_max_ns": max(e2e) if e2e else None,
    }
    return {
        "format": "flow-report/v1",
        "flows": flows,
        "summary": summary,
        "critical_path": _critical_path(flows),
    }


def merge_flow_reports(reports: list[dict]) -> dict:
    """Aggregate per-seed ``flow-report/v1`` documents across a sweep.

    Counts and drop breakdowns sum; end-to-end quantiles are recomputed
    from the per-flow records, and critical-path segment stats merge by
    count/mean/max (per-seed p95 is not mergeable and is recomputed
    from the per-flow dominant counts only).
    """
    totals = {"total": 0, "delivered": 0, "dropped": 0, "unattributed": 0}
    drops_by_layer: dict[str, int] = {}
    drops_by_cause: dict[str, int] = {}
    e2e: list[int] = []
    seg_count: dict[str, int] = {}
    seg_sum: dict[str, float] = {}
    seg_max: dict[str, float] = {}
    dominant: dict[str, int] = {}
    for report in reports:
        summary = report["summary"]
        for key in totals:
            totals[key] += summary[key]
        for layer, n in summary["drops_by_layer"].items():
            drops_by_layer[layer] = drops_by_layer.get(layer, 0) + n
        for cause, n in summary["drops_by_cause"].items():
            drops_by_cause[cause] = drops_by_cause.get(cause, 0) + n
        for entry in report["flows"].values():
            if entry["delivered_ns"] is not None:
                e2e.append(entry["delivered_ns"] - entry["born_ns"])
        path = report["critical_path"]
        for name, stats in path["segments"].items():
            seg_count[name] = seg_count.get(name, 0) + stats["count"]
            seg_sum[name] = seg_sum.get(name, 0.0) + stats["mean_ns"] * stats["count"]
            seg_max[name] = max(seg_max.get(name, 0.0), stats["max_ns"])
        for name, n in path["dominant"].items():
            dominant[name] = dominant.get(name, 0) + n
    segments = {
        name: {
            "count": seg_count[name],
            "mean_ns": seg_sum[name] / seg_count[name],
            "max_ns": seg_max[name],
        }
        for name in sorted(seg_count)
    }
    return {
        "format": "flow-report-aggregate/v1",
        "runs": len(reports),
        "summary": {
            **totals,
            "drops_by_layer": dict(sorted(drops_by_layer.items())),
            "drops_by_cause": dict(sorted(drops_by_cause.items())),
            "e2e_p50_ns": percentile(e2e, 0.5) if e2e else None,
            "e2e_p95_ns": percentile(e2e, 0.95) if e2e else None,
            "e2e_max_ns": max(e2e) if e2e else None,
        },
        "critical_path": {
            "segments": segments,
            "dominant": dict(sorted(dominant.items())),
        },
    }


_SUMMARY_KEYS = (
    "total",
    "delivered",
    "dropped",
    "unattributed",
    "drops_by_layer",
    "drops_by_cause",
)


def validate_flow_report(data: Any) -> list[str]:
    """Shape-check a ``flow-report/v1`` or aggregate document.

    Returns a list of problems (empty = valid).  Checks the count
    invariants the CI flows-smoke job relies on: delivered + dropped
    equals total, every undelivered flow carries exactly one
    ``(layer, cause, ts)`` attribution, and the drop breakdowns sum to
    the dropped count.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        return ["flow report is not a dict"]
    fmt = data.get("format")
    if fmt not in ("flow-report/v1", "flow-report-aggregate/v1"):
        problems.append(f"unknown format {fmt!r}")
    summary = data.get("summary")
    if not isinstance(summary, dict):
        return problems + ["missing summary"]
    for key in _SUMMARY_KEYS:
        if key not in summary:
            problems.append(f"summary missing {key!r}")
    if problems:
        return problems
    if summary["delivered"] + summary["dropped"] != summary["total"]:
        problems.append(
            "delivered + dropped != total: "
            f"{summary['delivered']} + {summary['dropped']} != {summary['total']}"
        )
    for breakdown in ("drops_by_layer", "drops_by_cause"):
        if sum(summary[breakdown].values()) != summary["dropped"]:
            problems.append(f"{breakdown} does not sum to dropped")
    flows = data.get("flows")
    if fmt == "flow-report/v1":
        if not isinstance(flows, dict):
            return problems + ["missing flows"]
        if len(flows) != summary["total"]:
            problems.append("flows count != summary total")
        for flow_id, entry in flows.items():
            hops = entry.get("hops")
            if not hops or any(len(hop) != 3 for hop in hops):
                problems.append(f"flow {flow_id}: malformed hops")
                continue
            if any(a[2] > b[2] for a, b in zip(hops, hops[1:])):
                problems.append(f"flow {flow_id}: hop timestamps not monotonic")
            delivered = entry.get("delivered_ns")
            drop = entry.get("drop")
            if delivered is None:
                if not (isinstance(drop, list) and len(drop) == 3):
                    problems.append(f"flow {flow_id}: undelivered without attribution")
            elif drop is not None:
                problems.append(f"flow {flow_id}: both delivered and dropped")
    return problems
