"""Exporters: Chrome/Perfetto ``trace_event`` JSON and ``metrics.json``.

The timeline export targets the Chrome ``trace_event`` format (the JSON
flavour both ``chrome://tracing`` and https://ui.perfetto.dev load
directly): one pseudo-process, one pseudo-thread per event-bus track,
complete spans as ``"ph": "X"`` and instants as ``"ph": "i"``.
Timestamps are the bus's integer nanoseconds converted to the format's
microsecond unit; the wall-clock stamp (when the event has one) and any
structured arguments ride along in ``args``.  It is the one renderer of
both timelines: a simulation run's observation (process ``repro``,
simulation time) and a campaign's fleet trace
(:func:`repro.obs.fleet.fleet_trace_bus`, host time from submission).

:func:`validate_trace_data` is the shape check CI's obs-smoke job and
the unit tests share: phases from the supported vocabulary,
non-negative durations, and per-track monotonically non-decreasing
timestamps.

The cross-seed reports of ``repro flows`` (:func:`flow_sweep`, the
``flow-sweep-report/v1`` document) and ``repro metrics``
(:func:`metrics_sweep`, ``repro-metrics-aggregate/v1``) sweep observed
seeds and merge what they recorded; like the exporters, no run loads
them.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.obs.bus import EventBus
    from repro.obs.context import Observation

__all__ = [
    "trace_events",
    "write_trace",
    "metrics_document",
    "write_metrics",
    "validate_trace_data",
    "flow_sweep",
    "metrics_sweep",
]

#: The pid every exported event carries (one simulated system = one process).
TRACE_PID = 1

#: Event phases the exporter emits / the validator accepts.  ``s``/``t``/``f``
#: are flow events (Perfetto arrows linking spans across tracks).
_PHASES = {"M", "X", "i", "s", "t", "f"}

#: Which event-bus track a flow hop's arrow anchor lands on.  Hops on
#: layers without a dedicated track ride the network lane (that is where
#: their surrounding spans live).
_FLOW_TRACKS = {
    "sensor": "network",
    "switch": "network",
    "nic": "network",
    "socket": "network",
    "someip": "network",
    "dear": "dear",
    "reactor": "reactors",
    "app": "reactors",
    "actuator": "reactors",
}


def _flow_event_records(
    flows: Any, tids: dict[str, int]
) -> list[tuple[str, int, dict[str, Any]]]:
    """Flow-event (``s``/``t``/``f``) records for every multi-hop flow.

    Returns ``(track, ts_ns, record)`` tuples so the caller can merge
    them into the per-lane ``(track, ts)`` sort next to the spans they
    arrow between.  Perfetto binds each arrow anchor to the enclosing
    slice on its (pid, tid) lane at that timestamp.
    """
    records: list[tuple[str, int, dict[str, Any]]] = []
    for record in flows.flows.values():
        anchors = [
            (hop, _FLOW_TRACKS.get(hop.layer, "network"))
            for hop in record.hops
        ]
        anchors = [(hop, track) for hop, track in anchors if track in tids]
        if len(anchors) < 2:
            continue
        for index, (hop, track) in enumerate(anchors):
            phase = "s" if index == 0 else ("f" if index == len(anchors) - 1 else "t")
            event: dict[str, Any] = {
                "name": f"flow {record.flow_id}",
                "cat": "flow",
                "ph": phase,
                "id": record.flow_id,
                "pid": TRACE_PID,
                "tid": tids[track],
                "ts": hop.ts / 1_000.0,  # ns -> us, the format's unit
                "args": {"layer": hop.layer, "hop": hop.name},
            }
            if phase == "f":
                event["bp"] = "e"  # bind to the enclosing slice
            records.append((track, hop.ts, event))
    return records


def trace_events(
    source: "Observation | EventBus", *, process: str = "repro"
) -> list[dict[str, Any]]:
    """Render an event bus as ``trace_event`` dicts.

    *source* is an observation (its bus, plus Perfetto flow arrows when
    causal flow tracing was active) or a bare :class:`EventBus`;
    *process* names the pseudo-process.  Events are ordered by
    ``(track, ts)`` so each pseudo-thread's timeline is monotonic
    regardless of the interleaved record order (different platforms'
    clocks may skew against global time).  Flow events are merged into
    the same per-lane order (after spans at equal timestamps, so each
    arrow anchor binds to the slice opened at that instant).
    """
    bus = getattr(source, "bus", source)
    tracks = bus.tracks()
    tids = {track: index + 1 for index, track in enumerate(tracks)}
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": 0,
            "args": {"name": process},
        }
    ]
    for track in tracks:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tids[track],
                "args": {"name": track},
            }
        )
    keyed: list[tuple[str, int, int, dict[str, Any]]] = []
    for order, event in enumerate(bus.events):
        record: dict[str, Any] = {
            "name": event.name,
            "cat": event.track,
            "ph": event.phase,
            "pid": TRACE_PID,
            "tid": tids[event.track],
            "ts": event.ts / 1_000.0,  # ns -> us, the format's unit
        }
        if event.phase == "X":
            record["dur"] = event.dur / 1_000.0
        if event.phase == "i":
            record["s"] = "t"  # thread-scoped instant
        args = dict(event.args) if event.args else {}
        if event.wall_ns is not None:
            args["wall_ns"] = event.wall_ns
        record["args"] = args
        keyed.append((event.track, event.ts, order, record))
    flows = getattr(source, "flows", None)
    if flows is not None:
        base = len(keyed)
        for offset, (track, ts, record) in enumerate(_flow_event_records(flows, tids)):
            keyed.append((track, ts, base + offset, record))
    keyed.sort(key=lambda item: (item[0], item[1], item[2]))
    events.extend(record for _, _, _, record in keyed)
    return events


def write_trace(
    source: "Observation | EventBus",
    path: str | Path,
    *,
    process: str = "repro",
    **other: Any,
) -> Path:
    """Write *source*'s timeline as a ``trace_event`` JSON file.

    ``otherData`` names the generator and the tracks; keyword *other*
    fields are added to it (or override those two).
    """
    bus = getattr(source, "bus", source)
    path = Path(path)
    document = {
        "traceEvents": trace_events(source, process=process),
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs", "tracks": bus.tracks(), **other},
    }
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return path


def metrics_document(observation: "Observation") -> dict[str, Any]:
    """The machine-readable ``metrics.json`` payload for one run."""
    return {
        "format": "repro-metrics/v1",
        "events": len(observation.bus),
        "tracks": observation.bus.tracks(),
        "metrics": observation.metrics.snapshot(),
    }


def write_metrics(observation: "Observation", path: str | Path) -> Path:
    """Write one run's metrics snapshot as JSON."""
    path = Path(path)
    path.write_text(
        json.dumps(metrics_document(observation), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def validate_trace_data(data: Any) -> list[str]:
    """Check *data* against the ``trace_event`` shape; returns problems.

    Accepts either the object form (``{"traceEvents": [...]}``) or the
    bare event array.  An empty list means the trace is well-formed:
    known phases, required fields, non-negative durations, and
    non-decreasing timestamps per ``(pid, tid)`` lane.
    """
    problems: list[str] = []
    if isinstance(data, dict):
        events = data.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level object has no 'traceEvents' array"]
    elif isinstance(data, list):
        events = data
    else:
        return ["trace must be a JSON object or array"]

    last_ts: dict[tuple[Any, Any], float] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event[{index}] is not an object")
            continue
        phase = event.get("ph")
        if phase not in _PHASES:
            problems.append(f"event[{index}] has unsupported phase {phase!r}")
            continue
        if not event.get("name"):
            problems.append(f"event[{index}] has no name")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event[{index}] has no numeric ts")
            continue
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event[{index}] has invalid dur {dur!r}")
        if phase in ("s", "t", "f") and event.get("id") is None:
            problems.append(f"event[{index}] flow event has no id")
        lane = (event.get("pid"), event.get("tid"))
        previous = last_ts.get(lane)
        if previous is not None and ts < previous:
            problems.append(
                f"event[{index}] ts {ts} goes backwards on lane {lane} "
                f"(previous {previous})"
            )
        last_ts[lane] = ts
    return problems



def flow_sweep(spec, seeds, variants, sweep=None, *, keyed_by_spec=False):
    """``repro flows``: flow-trace *seeds* of *spec* per variant, merged.

    Maps :func:`repro.harness.flow_summary` over the seeds for each of
    *variants* and merges the per-seed ``flow-report/v1`` documents;
    the text shows drop attribution and the critical path, and with
    both variants a stock-vs-DEAR delivery/drop diff.  Sweep keys name
    the frame count and fault plan, or with *keyed_by_spec* (a spec
    loaded from a file) the whole spec.  Returns a
    :class:`~repro.analysis.report.Report` whose document is the
    ``flow-sweep-report/v1``.
    """
    from repro.analysis.report import Report, render_table
    from repro.harness.config import flow_summary
    from repro.harness.sweep import SweepRunner
    from repro.obs.flows import merge_flow_reports

    sweep = sweep or SweepRunner()
    definition = spec.definition()
    frames = spec.scenario.n_frames
    params = definition.sweep_params(
        frames=frames,
        spec=spec.to_dict() if keyed_by_spec else None,
        faults=spec.faults.to_dict() if spec.faults is not None else None,
    )
    merged: dict[str, dict] = {}
    lines = []
    for variant in variants:
        runs = sweep.map(
            partial(flow_summary, spec=replace(spec, variant=variant)),
            seeds,
            name=definition.qualified("flows", variant),
            params=params,
        )
        merged[variant] = merge_flow_reports([run["report"] for run in runs])
        summary = merged[variant]["summary"]
        tag = definition.qualified("", variant, sep=" ")
        drop_rows = [
            [cause, str(count)] for cause, count in summary["drops_by_cause"].items()
        ] or [["(none)", "0"]]
        lines.append(render_table(
            ["drop cause", "frames"],
            drop_rows,
            title=(
                f"FLOWS - {tag}: {summary['delivered']}/{summary['total']} "
                f"delivered over {len(seeds)} seed(s), e2e p50 "
                f"{summary['e2e_p50_ns']} ns, p95 {summary['e2e_p95_ns']} ns"
            ),
        ))
        path = merged[variant]["critical_path"]
        seg_rows = [
            [name, str(stats["count"]), f"{stats['mean_ns']:.0f}",
             str(stats["max_ns"]), str(path["dominant"].get(name, 0))]
            for name, stats in path["segments"].items()
        ]
        lines.append(render_table(
            ["segment", "hops", "mean ns", "max ns", "dominant for"],
            seg_rows,
            title=f"FLOWS - {tag} critical path:",
        ))

    document = {
        "format": "flow-sweep-report/v1",
        "app": definition.name,
        "frames": frames,
        "seeds": len(seeds),
        **merged,
    }
    if len(variants) == 2:
        det_s = merged["det"]["summary"]
        stock_s = merged["nondet"]["summary"]
        document["diff"] = diff = {
            "det_delivered": det_s["delivered"],
            "stock_delivered": stock_s["delivered"],
            "det_dropped": det_s["dropped"],
            "stock_dropped": stock_s["dropped"],
            "det_drops_by_cause": det_s["drops_by_cause"],
            "stock_drops_by_cause": stock_s["drops_by_cause"],
            "stock_only_causes": sorted(
                set(stock_s["drops_by_cause"]) - set(det_s["drops_by_cause"])
            ),
            "det_e2e_p95_ns": det_s["e2e_p95_ns"],
            "stock_e2e_p95_ns": stock_s["e2e_p95_ns"],
        }
        lines.append(
            f"FLOWS diff: DEAR delivered {det_s['delivered']}/{det_s['total']}"
            f" vs stock {stock_s['delivered']}/{stock_s['total']}; "
            f"stock-only drop causes: {diff['stock_only_causes'] or 'none'}"
        )
    return Report("\n".join(lines), document)


def metrics_sweep(spec, seeds, sweep=None):
    """``repro metrics``: observe *seeds* of *spec*, aggregate metrics.

    Returns a :class:`~repro.analysis.report.Report` of the cross-seed
    counter and histogram tables; its document is the
    ``repro-metrics-aggregate/v1``.
    """
    from repro.analysis.report import Report, render_table
    from repro.harness.config import flow_summary
    from repro.harness.sweep import SweepRunner
    from repro.obs.metrics import aggregate_snapshots

    sweep = sweep or SweepRunner()
    definition = spec.definition()
    frames = spec.scenario.n_frames
    runs = sweep.map(
        partial(flow_summary, spec=spec, flows=False),
        seeds,
        name=definition.qualified("obs", spec.variant),
        params=definition.sweep_params(frames=frames),
    )
    aggregate = aggregate_snapshots([run["metrics"] for run in runs])

    tag = definition.qualified("", spec.variant, sep=" ")
    counters = [
        [name, str(entry["total"]), str(entry["p50"]), str(entry["max"])]
        for name, entry in aggregate["counters"].items()
    ]
    histograms = [
        [name, str(entry["count"]), f"{entry['mean']:.0f}", str(entry["p50"]),
         str(entry["p95"]), str(entry["max"])]
        for name, entry in aggregate["histograms"].items()
    ]
    text = "\n".join([
        render_table(
            ["counter", "total", "p50/seed", "max/seed"], counters,
            title=f"OBS - {tag} counters over {len(seeds)} seeds:",
        ),
        render_table(
            ["histogram", "samples", "mean", "p50", "p95", "max"], histograms,
            title="OBS - merged histograms (ns):",
        ),
    ])
    return Report(text, {
        "format": "repro-metrics-aggregate/v1",
        "app": spec.app,
        "experiment": spec.variant,
        "frames": frames,
        "seeds": len(seeds),
        "aggregate": aggregate,
    })
