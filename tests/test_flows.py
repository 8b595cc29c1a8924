"""Tests for ``repro.obs.flows`` — causal flow tracing.

Covers the registry primitives (hop chains, first-wins drop
attribution, delivery-wins semantics, the cross-boundary correlation
maps), the report builder / merger / validator, the labeled-counter
reconciliation against per-layer drop counters, the Perfetto flow-event
export, the headline determinism invariant (fingerprints byte-identical
flows on/off for both variants), and the ``repro flows`` CLI.
"""

import json

import pytest

from repro import obs
from repro.harness import ScenarioSpec, flow_summary, observe_run
from repro.obs.flows import (
    CAUSE_BUFFER_OVERWRITE,
    CAUSE_FAULT_DROP,
    CAUSE_IN_FLIGHT,
    FlowRegistry,
    LAYER_APP,
    LAYER_SWITCH,
    flow_id_of,
    flow_report,
    merge_flow_reports,
    validate_flow_report,
)
from repro.obs.metrics import MetricsRegistry, labeled, parse_labeled


def _spec(scenario, variant, faults=None):
    return ScenarioSpec(variant=variant, scenario=scenario, faults=faults)


def _registry():
    return FlowRegistry(MetricsRegistry())


class TestFlowIdOf:
    def test_dict_and_object_payloads(self):
        class Command:
            frame_seq = 7

        assert flow_id_of({"seq": 3}) == 3
        assert flow_id_of({"frame_seq": 4}) == 4
        assert flow_id_of({"seq": 3, "frame_seq": 9}) == 3  # seq wins
        assert flow_id_of(Command()) == 7

    def test_uncorrelated_values(self):
        assert flow_id_of({"tick": 1}) is None
        assert flow_id_of(42) is None
        assert flow_id_of(None) is None
        assert flow_id_of({"seq": True}) is None  # bools are not flow ids
        assert flow_id_of({"seq": "3"}) is None


class TestFlowRegistry:
    def test_begin_hop_deliver(self):
        flows = _registry()
        flows.begin(0, ts=100)
        flows.hop(0, "switch", "cam->ecu", 250)
        flows.deliver(0, ts=1000)
        record = flows.flows[0]
        assert [hop.layer for hop in record.hops] == [
            "sensor", "switch", "actuator",
        ]
        assert record.delivered_ns == 1000
        snapshot = flows._metrics.snapshot()
        assert snapshot["counters"]["flow.begun"] == 1
        assert snapshot["counters"]["flow.delivered"] == 1
        assert snapshot["histograms"]["flow.hop.switch_ns"]["count"] == 1
        assert snapshot["histograms"]["flow.e2e_latency_ns"]["max"] == 900

    def test_first_drop_wins(self):
        flows = _registry()
        flows.begin(0, ts=0)
        flows.drop(0, "switch", "random-drop", 10)
        flows.drop(0, "nic", "fcs-drop", 20)
        assert flows.flows[0].drop == ("switch", "random-drop", 10)

    def test_delivery_beats_branch_drop(self):
        # A fan-out branch (the lane copy) can be overwritten while the
        # frame itself still reaches the actuator: attribution means the
        # *frame* was lost, so delivery clears any branch verdict.
        flows = _registry()
        flows.begin(0, ts=0)
        flows.drop(0, "app", "buffer-overwrite", 50)
        flows.deliver(0, ts=100)
        assert flows.flows[0].drop is None
        flows.drop(0, "app", "buffer-overwrite", 150)  # post-delivery: ignored
        assert flows.flows[0].drop is None

    def test_frame_refcount_survives_duplicates(self):
        flows = _registry()
        flows.begin(3, ts=0)
        frame = object()
        flows.frame_sent(frame, 3)
        flows.frame_sent(frame, 3)  # duplicate fault: same object, twice
        assert flows.frame_arrived(frame) == 3
        assert flows.frame_arrived(frame) == 3
        assert flows.frame_arrived(frame) is None  # released
        assert flows._frames == {}

    def test_event_binding_uses_current_flow(self):
        flows = _registry()
        flows.begin(5, ts=0)
        value = {"payload": 1}
        flows.bind_event(value)
        previous = flows.swap_current(None)
        assert flows.event_arrived(value) == 5
        assert flows.event_arrived(value) is None  # one-shot
        flows.restore_current(previous)
        assert flows.current == 5

    def test_unknown_flow_is_ignored(self):
        flows = _registry()
        flows.hop(99, "switch", "x", 1)
        flows.drop(99, "switch", "y", 1)
        flows.deliver(99, 1)
        assert flows.flows == {}


class TestAttributeDrop:
    def test_labeled_counter_and_flow_attribution(self):
        with obs.capture(flows=True) as observation:
            observation.flows.begin(0, ts=0)
            obs.attribute_drop(observation, LAYER_SWITCH, CAUSE_FAULT_DROP, 10)
        name = labeled("drops_total", layer=LAYER_SWITCH, cause=CAUSE_FAULT_DROP)
        assert observation.metrics.snapshot()["counters"][name] == 1
        assert observation.flows.flows[0].drop == (
            LAYER_SWITCH, CAUSE_FAULT_DROP, 10,
        )
        family, labels = parse_labeled(name)
        assert family == "drops_total"
        assert labels == {"layer": LAYER_SWITCH, "cause": CAUSE_FAULT_DROP}

    def test_counter_without_flows(self):
        # Flow tracing off, observability on: the unified counter still
        # counts, just with nothing to attribute.
        with obs.capture() as observation:
            obs.attribute_drop(observation, LAYER_APP, CAUSE_BUFFER_OVERWRITE, 5)
        name = labeled("drops_total", layer=LAYER_APP, cause=CAUSE_BUFFER_OVERWRITE)
        assert observation.metrics.snapshot()["counters"][name] == 1


def _report(delivered=2, dropped=1):
    flows = _registry()
    ts = 0
    for flow_id in range(delivered + dropped):
        flows.begin(flow_id, ts)
        flows.hop(flow_id, "switch", "cam->ecu", ts + 10)
        if flow_id < delivered:
            flows.deliver(flow_id, ts + 100)
        else:
            flows.drop(flow_id, "switch", "random-drop", ts + 10)
        ts += 1000
    return flow_report(flows)


class TestFlowReport:
    def test_summary_invariants(self):
        report = _report(delivered=3, dropped=2)
        assert validate_flow_report(report) == []
        summary = report["summary"]
        assert summary["total"] == 5
        assert summary["delivered"] == 3
        assert summary["dropped"] == 2
        assert summary["unattributed"] == 0
        assert summary["drops_by_layer"] == {"switch": 2}
        assert summary["drops_by_cause"] == {"random-drop": 2}
        assert summary["e2e_p50_ns"] == 100

    def test_in_flight_fallback_counts_as_unattributed(self):
        flows = _registry()
        flows.begin(0, ts=0)
        flows.hop(0, "switch", "cam->ecu", 10)
        report = flow_report(flows)
        assert report["summary"]["unattributed"] == 1
        assert report["flows"]["0"]["drop"] == ["switch", CAUSE_IN_FLIGHT, 10]
        # The fallback keeps the document itself valid.
        assert validate_flow_report(report) == []

    def test_critical_path_dominant_segment(self):
        flows = _registry()
        flows.begin(0, ts=0)
        flows.hop(0, "switch", "a", 10)
        flows.hop(0, "dear", "b", 900)  # the expensive segment
        flows.deliver(0, 1000)
        path = flow_report(flows)["critical_path"]
        assert path["dominant"] == {"switch->dear": 1}
        assert path["segments"]["switch->dear"]["max_ns"] == 890

    def test_json_round_trip(self):
        report = _report()
        again = json.loads(json.dumps(report))
        assert again == report
        assert validate_flow_report(again) == []

    def test_merge(self):
        merged = merge_flow_reports([_report(2, 1), _report(1, 2)])
        assert merged["format"] == "flow-report-aggregate/v1"
        assert merged["runs"] == 2
        summary = merged["summary"]
        assert summary["total"] == 6
        assert summary["delivered"] == 3
        assert summary["dropped"] == 3
        assert summary["drops_by_cause"] == {"random-drop": 3}
        assert validate_flow_report(merged) == []
        segments = merged["critical_path"]["segments"]
        assert segments["sensor->switch"]["count"] == 3

    def test_validator_catches_violations(self):
        report = _report()
        report["summary"]["delivered"] += 1
        assert any("delivered + dropped" in p for p in validate_flow_report(report))
        report = _report()
        report["flows"]["0"]["drop"] = ["switch", "x", 1]  # delivered AND dropped
        assert any("both delivered" in p for p in validate_flow_report(report))
        report = _report()
        report["flows"]["2"]["drop"] = None  # undelivered without attribution
        assert any("without attribution" in p for p in validate_flow_report(report))
        assert validate_flow_report([]) == ["flow report is not a dict"]


class TestBrakeFlows:
    def test_det_all_frames_delivered_with_quantiles(self):
        from repro.explore import calibration_scenario
        scenario = calibration_scenario(20, deterministic_camera=True)
        run = flow_summary(0, _spec(scenario, "det"))
        report = run["report"]
        assert validate_flow_report(report) == []
        summary = report["summary"]
        assert summary["total"] >= 20
        assert summary["delivered"] == summary["total"]
        assert summary["unattributed"] == 0
        # Per-hop quantiles appear in the shared metrics snapshot.
        histograms = run["metrics"]["histograms"]
        e2e = histograms["flow.e2e_latency_ns"]
        assert e2e["count"] == summary["delivered"]
        assert e2e["p95"] >= e2e["p50"] > 0
        assert any(name.startswith("flow.hop.") for name in histograms)

    def test_every_lost_frame_has_exactly_one_attribution(self):
        from repro.explore import calibration_scenario
        from repro.faults import FaultPlan
        scenario = calibration_scenario(40, deterministic_camera=True)
        plan = FaultPlan.camera_faults(seed=3, drop=0.15, label="flows-test")
        run = flow_summary(0, _spec(scenario, "det", plan))
        report = run["report"]
        assert validate_flow_report(report) == []
        summary = report["summary"]
        assert summary["dropped"] > 0, "fault plan should lose at least one frame"
        assert summary["unattributed"] == 0
        assert sum(summary["drops_by_cause"].values()) == summary["dropped"]
        for entry in report["flows"].values():
            if entry["delivered_ns"] is None:
                assert isinstance(entry["drop"], list) and len(entry["drop"]) == 3
            else:
                assert entry["drop"] is None

    def test_drops_total_reconciles_with_attribution(self):
        from repro.explore import calibration_scenario
        from repro.faults import FaultPlan
        scenario = calibration_scenario(40, deterministic_camera=True)
        plan = FaultPlan.camera_faults(seed=3, drop=0.2, label="flows-recon")
        run = flow_summary(0, _spec(scenario, "det", plan))
        counters = run["metrics"]["counters"]
        by_cause: dict[str, int] = {}
        for name, value in counters.items():
            family, labels = parse_labeled(name)
            if family == "drops_total":
                by_cause[labels["cause"]] = by_cause.get(labels["cause"], 0) + value
        summary = run["report"]["summary"]
        # Every attributed frame loss is backed by a labeled counter
        # increment; the counters may additionally count branch losses
        # (copies that died while the frame still delivered).
        for cause, count in summary["drops_by_cause"].items():
            if cause == CAUSE_IN_FLIGHT:
                continue  # report-time fallback, never counted live
            assert by_cause.get(cause, 0) >= count
        assert counters[labeled(
            "drops_total", layer=LAYER_SWITCH, cause=CAUSE_FAULT_DROP,
        )] == summary["drops_by_cause"][CAUSE_FAULT_DROP]

    def test_nondet_attributes_its_losses(self):
        from repro.apps.brake import BrakeScenario

        run = flow_summary(5, _spec(BrakeScenario(n_frames=120), "nondet"))
        report = run["report"]
        assert validate_flow_report(report) == []
        # The stock variant loses frames to app-level buffer overwrites
        # on most seeds; whatever happened, nothing may go unexplained.
        assert report["summary"]["unattributed"] == 0


class TestDeterminismInvariant:
    @pytest.mark.parametrize("variant", ["det", "nondet"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_fingerprints_identical_flows_on_off(self, variant, seed):
        from repro.explore import calibration_scenario
        scenario = calibration_scenario(15, deterministic_camera=True)
        _, plain = observe_run(seed, _spec(scenario, variant))
        _, flowed = observe_run(seed, _spec(scenario, variant), flows=True)
        assert dict(plain.trace_fingerprints) == dict(flowed.trace_fingerprints)
        assert plain.commands == flowed.commands

    def test_fingerprints_identical_under_faults(self):
        from repro.explore import calibration_scenario
        from repro.faults import FaultPlan
        from repro.apps.brake.det import run_det_brake_assistant

        scenario = calibration_scenario(20, deterministic_camera=True)
        plan = FaultPlan.camera_faults(seed=1, drop=0.1, label="det-check")
        baseline = run_det_brake_assistant(0, scenario, fault_plan=plan)
        _, flowed = observe_run(0, _spec(scenario, "det", plan), flows=True)
        assert dict(baseline.trace_fingerprints) == dict(flowed.trace_fingerprints)


class TestFlowExport:
    def _observed(self):
        from repro.explore import calibration_scenario
        scenario = calibration_scenario(10, deterministic_camera=True)
        observation, _ = observe_run(0, _spec(scenario, "det"), flows=True)
        return observation

    def test_flow_events_emitted_and_valid(self):
        observation = self._observed()
        events = obs.trace_events(observation)
        assert obs.validate_trace_data(events) == []
        flow_events = [e for e in events if e["ph"] in ("s", "t", "f")]
        assert flow_events, "flow tracing should emit Perfetto arrows"
        # File order is per-lane (track, ts); phase order is by timestamp.
        by_id: dict[int, list[tuple[float, str]]] = {}
        for event in flow_events:
            by_id.setdefault(event["id"], []).append((event["ts"], event["ph"]))
            assert event["cat"] == "flow"
        for anchors in by_id.values():
            phases = [ph for _, ph in anchors]
            assert phases.count("s") == 1
            assert phases.count("f") == 1
            start_ts = next(ts for ts, ph in anchors if ph == "s")
            finish_ts = next(ts for ts, ph in anchors if ph == "f")
            assert start_ts == min(ts for ts, _ in anchors)
            assert finish_ts == max(ts for ts, _ in anchors)

    def test_flow_anchors_bind_to_span_tids(self):
        observation = self._observed()
        events = obs.trace_events(observation)
        span_tids = {e["tid"] for e in events if e["ph"] == "X"}
        finish = [e for e in events if e["ph"] == "f"]
        assert all(e["tid"] in span_tids for e in finish)
        assert all(e.get("bp") == "e" for e in finish)

    def test_plain_observation_has_no_flow_events(self):
        from repro.explore import calibration_scenario
        scenario = calibration_scenario(10, deterministic_camera=True)
        observation, _ = observe_run(0, _spec(scenario, "det"))
        phases = {e["ph"] for e in obs.trace_events(observation)}
        assert phases <= {"M", "X", "i"}

    def test_validator_rejects_flow_event_without_id(self):
        problems = obs.validate_trace_data([
            {"name": "flow 1", "ph": "s", "pid": 1, "tid": 1, "ts": 0.0},
        ])
        assert any("no id" in p for p in problems)


class TestCli:
    def test_flows_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "flows.json"
        trace_path = tmp_path / "flow-trace.json"
        code = main([
            "flows", "--seeds", "2", "--frames", "15", "--workers", "1",
            "--no-cache", "--out", str(out_path),
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        document = json.loads(out_path.read_text())
        assert document["format"] == "flow-sweep-report/v1"
        for variant in ("det", "nondet"):
            assert validate_flow_report(document[variant]) == []
        assert document["det"]["summary"]["unattributed"] == 0
        diff = document["diff"]
        assert diff["det_delivered"] >= diff["stock_delivered"]
        trace = json.loads(trace_path.read_text())
        assert obs.validate_trace_data(trace) == []
        assert {"s", "f"} <= {e["ph"] for e in trace["traceEvents"]}
        out = capsys.readouterr().out
        assert "FLOWS diff" in out

    def test_flows_single_variant_with_fault_plan(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "flows-det.json"
        code = main([
            "flows", "--seeds", "1", "--frames", "40", "--variant", "det",
            "--drop", "0.15", "--fault-seed", "3",
            "--workers", "1", "--no-cache", "--out", str(out_path),
        ])
        assert code == 0
        document = json.loads(out_path.read_text())
        assert "diff" not in document
        summary = document["det"]["summary"]
        assert summary["dropped"] > 0
        assert summary["unattributed"] == 0
        assert "fault" in " ".join(summary["drops_by_cause"])
