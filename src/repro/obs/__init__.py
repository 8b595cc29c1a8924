"""``repro.obs`` — opt-in physical-time observability.

The logical :class:`~repro.reactors.telemetry.Trace` answers "*what*
happened, in which logical order" and deliberately excludes physical
time from its fingerprint.  This package answers the complementary
question — "*where does physical time go?*" — with three pieces:

* a structured **event bus** (:mod:`repro.obs.bus`): typed spans and
  instants on per-layer tracks (scheduler, reactors, DEAR, network),
  stamped with simulation time and wall time;
* a **metrics registry** (:mod:`repro.obs.metrics`): counters, gauges
  and fixed-bucket histograms for reaction lag, deadline slack,
  safe-to-process waits, mutex hold times, queue depths and drops —
  exactly mergeable across sweep seeds;
* **exporters** (:mod:`repro.obs.export`): Chrome/Perfetto
  ``trace_event`` JSON for timeline viewing — the one renderer of both
  a run's bus and a campaign's fleet trace (:mod:`repro.obs.fleet`) —
  and a ``metrics.json`` snapshot for regression tooling.

Everything is off by default.  A simulation site guards itself with a
single flag check (:mod:`repro.obs.context`); the infrastructure's
fleet telemetry (:mod:`repro.obs.fleet`) records through
``fleet.inc``/``observe``/``set_gauge``, which return at once while no
registry is enabled.  Recording never draws randomness or influences
scheduling — enabling full observability leaves every logical trace
fingerprint byte-identical.

Quick use::

    from repro import obs
    from repro.harness import ScenarioSpec, observe_run

    observation, result = observe_run(0, ScenarioSpec(variant="det"))
    obs.write_trace(observation, "trace.json")      # open in Perfetto
    obs.write_metrics(observation, "metrics.json")

or, from a shell: ``repro trace det --trace-out trace.json``.
:func:`repro.harness.observe_run` is the one place a seed runs under
:func:`capture`; sweeps reach it through ``ScenarioSpec(observe=True)``
(metrics in ``result.fault_summary["metrics"]``) or
:func:`repro.harness.flow_summary` (causal flow reports).
"""

from repro._lazy import lazy_exports
from repro.obs.bus import (
    Event,
    EventBus,
    TRACK_DEAR,
    TRACK_NETWORK,
    TRACK_REACTORS,
    TRACK_SCHEDULER,
)
from repro.obs import fleet
from repro.obs.context import Observation, NullObservation, capture
from repro.obs.flows import (
    FlowRecord,
    FlowRegistry,
    Hop,
    attribute_drop,
    flow_id_of,
    flow_report,
    merge_flow_reports,
    validate_flow_report,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_TIME_BUCKETS_NS,
    DEPTH_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_snapshots,
    labeled,
    parse_labeled,
    percentile,
)

from repro.obs.fleet import (
    fleet_trace_bus,
    fleet_trace_events,
    fleet_trace_labels,
    prometheus_text,
    validate_prometheus_text,
)

# The exporters and the cross-seed reports load on first access
# (:mod:`repro._lazy`): a run only records; writing the files is the
# caller's step.
_EXPORTS = {
    "flow_sweep": "export",
    "metrics_document": "export",
    "metrics_sweep": "export",
    "trace_events": "export",
    "validate_trace_data": "export",
    "write_metrics": "export",
    "write_trace": "export",
}

__all__ = [
    "Event",
    "EventBus",
    "fleet",
    "fleet_trace_bus",
    "fleet_trace_events",
    "fleet_trace_labels",
    "prometheus_text",
    "validate_prometheus_text",
    "TRACK_SCHEDULER",
    "TRACK_REACTORS",
    "TRACK_DEAR",
    "TRACK_NETWORK",
    "Observation",
    "NullObservation",
    "capture",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS_NS",
    "DEPTH_BUCKETS",
    "aggregate_snapshots",
    "labeled",
    "parse_labeled",
    "percentile",
    *_EXPORTS,
    "FlowRegistry",
    "FlowRecord",
    "Hop",
    "attribute_drop",
    "flow_id_of",
    "flow_report",
    "merge_flow_reports",
    "validate_flow_report",
]

__getattr__ = lazy_exports(__name__, _EXPORTS)
