"""End-to-end tests for the multi-ECU scenario library and app registry."""

from dataclasses import replace

import pytest

from repro import apps, obs
from repro.apps.lib import (
    FailoverScenario,
    FusionScenario,
    MixedCriticalityScenario,
)
from repro.apps.lib.mixedcrit import BULK_PORT, LOGGER_ECU
from repro.apps.registry import AppDefinition
from repro.harness import ScenarioSpec
from repro.network import NetworkInterface
from repro.obs.flows import flow_report, validate_flow_report

LIBRARY_APPS = ("fusion", "failover", "mixedcrit")

#: Small-but-representative workloads for each app (fast CI runs).
SMALL_SCENARIOS = {
    "fusion": FusionScenario(n_frames=24),
    "failover": FailoverScenario(n_frames=24),
    "mixedcrit": MixedCriticalityScenario(n_frames=60),
}


class TestRegistry:
    def test_brake_and_library_apps_registered(self):
        names = apps.names()
        assert "brake" in names
        for name in LIBRARY_APPS:
            assert name in names

    def test_library_filter_excludes_brake(self):
        library = apps.names(library=True)
        assert "brake" not in library
        assert set(LIBRARY_APPS) <= set(library)

    def test_unknown_app_raises_with_known_names(self):
        with pytest.raises(KeyError):
            apps.get("no-such-app")

    def test_every_app_has_det_and_nondet(self):
        for name in LIBRARY_APPS:
            assert apps.get(name).variants() == ("det", "nondet")

    def test_every_runner_follows_the_runner_contract(self):
        # Replay and observation are installed around a run, never
        # passed to it: the contract is these four parameters.
        import inspect

        for name in apps.names():
            definition = apps.get(name)
            for variant in definition.variants():
                signature = inspect.signature(definition.runner(variant))
                params = signature.parameters
                assert list(params) == [
                    "seed", "scenario", "switch_config", "fault_plan"
                ], (name, variant)
                assert params["switch_config"].default is None
                assert params["fault_plan"].default is None

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError):
            apps.get("fusion").runner("hybrid")

    def test_definition_needs_runners(self):
        with pytest.raises(ValueError):
            AppDefinition(
                name="empty", title="", runners={}, scenario_type=FusionScenario
            )

    def test_scenario_round_trips_through_registry(self):
        for name in LIBRARY_APPS:
            definition = apps.get(name)
            scenario = SMALL_SCENARIOS[name]
            assert definition.load_scenario(
                definition.dump_scenario(scenario)
            ) == scenario

    def test_scenario_sizes_keep_library_defaults(self):
        brake, fusion = apps.get("brake"), apps.get("fusion")
        assert brake.scenario(None, 150).n_frames == 150
        assert brake.scenario(30, 150).n_frames == 30
        assert fusion.scenario(None, 150) == fusion.default_scenario()
        assert fusion.scenario(30, 150).n_frames == 30

    def test_explore_scenario_and_fixed_inputs(self):
        from repro.explore import calibration_scenario

        brake = apps.get("brake")
        assert brake.explore_scenario(40) == calibration_scenario(40)
        assert brake.explore_scenario(40, fixed_inputs=True) == calibration_scenario(
            40, deterministic_camera=True
        )
        for name in LIBRARY_APPS:
            definition = apps.get(name)
            scenario = definition.explore_scenario(20, fixed_inputs=True)
            assert scenario == replace(
                definition.default_scenario(), n_frames=20, deterministic_inputs=True
            )
            assert definition.with_fixed_inputs(scenario, False) == replace(
                scenario, deterministic_inputs=False
            )

    def test_library_topologies_have_at_least_three_nodes(self):
        for name in LIBRARY_APPS:
            definition = apps.get(name)
            topo = definition.topology_for(definition.default_scenario())
            assert len(topo.nodes) >= 3
            assert not topo.is_trivial


class TestEndToEnd:
    @pytest.mark.parametrize("app", LIBRARY_APPS)
    @pytest.mark.parametrize("variant", ["det", "nondet"])
    def test_runs_to_completion(self, app, variant):
        scenario = SMALL_SCENARIOS[app]
        result = apps.get(app).runner(variant)(0, scenario)
        assert result.n_frames == scenario.n_frames
        assert result.commands  # the sink produced output

    @pytest.mark.parametrize("app", LIBRARY_APPS)
    def test_det_flow_report_attributes_every_loss(self, app):
        """Under DEAR every flow is delivered or carries exactly one
        explicit (layer, cause) — nothing unattributed."""
        scenario = SMALL_SCENARIOS[app]
        with obs.capture(flows=True) as observation:
            apps.get(app).runner("det")(0, scenario)
        report = flow_report(observation.flows)
        assert validate_flow_report(report) == []
        assert report["summary"]["unattributed"] == 0
        for entry in report["flows"].values():
            delivered = entry["delivered_ns"] is not None
            dropped = entry["drop"] is not None
            assert delivered != dropped  # exactly one outcome per flow

    @pytest.mark.parametrize("app", LIBRARY_APPS)
    def test_dear_delivers_no_less_than_stock(self, app):
        scenario = SMALL_SCENARIOS[app]

        def delivered(variant):
            with obs.capture(flows=True) as observation:
                apps.get(app).runner(variant)(0, scenario)
            return flow_report(observation.flows)["summary"]["delivered"]

        assert delivered("det") >= delivered("nondet")

    def test_stock_mixedcrit_stale_publish_is_attributed(self):
        """With no warm-up the sensor publishes before the control ECU
        subscribed: that sample is a ``(someip, no-subscriber)`` drop,
        as in failover, not an unattributed in-flight flow."""
        scenario = MixedCriticalityScenario(warmup_ns=0, n_frames=50)
        with obs.capture(flows=True) as observation:
            result = apps.get("mixedcrit").runner("nondet")(0, scenario)
        summary = flow_report(observation.flows)["summary"]
        assert result.errors.stale_publishes == 1
        assert summary["unattributed"] == 0
        assert summary["drops_by_cause"].get("no-subscriber") == 1
        assert summary["drops_by_layer"].get("someip") == 1

    @pytest.mark.parametrize("variant", ["det", "nondet"])
    def test_mixedcrit_logger_drains_its_bulk_sink(self, monkeypatch, variant):
        """The logger ECU discards bulk telemetry as it arrives instead
        of queueing every frame, unread, for the rest of the run."""
        sockets = []
        bind = NetworkInterface.bind

        def recording_bind(nic, port=None, rx_capacity=None):
            socket = bind(nic, port, rx_capacity)
            sockets.append(socket)
            return socket

        monkeypatch.setattr(NetworkInterface, "bind", recording_bind)
        apps.get("mixedcrit").runner(variant)(3, SMALL_SCENARIOS["mixedcrit"])
        (sink,) = [
            socket
            for socket in sockets
            if (socket.host, socket.port) == (LOGGER_ECU, BULK_PORT)
        ]
        assert sink.received > 0
        assert len(sink.rx) == 0

    @pytest.mark.parametrize("variant", ["det", "nondet"])
    def test_failover_readings_nobody_publishes_are_attributed(self, variant):
        """While the primary is down and the standby not yet offering,
        neither producer publishes: those readings are ``(app,
        no-producer)`` losses in the flow report, not absent from it,
        and attributing them changes nothing in the result."""
        scenario = FailoverScenario(n_frames=200)
        runner = apps.get("failover").runner(variant)
        plain = runner(0, scenario)
        with obs.capture(flows=True) as observation:
            flowed = runner(0, scenario)
        report = flow_report(observation.flows)
        summary = report["summary"]
        assert summary["total"] == scenario.n_frames
        assert summary["unattributed"] == 0
        unpublished = sorted(
            int(seq)
            for seq, entry in report["flows"].items()
            if entry["drop"] is not None and entry["drop"][1] == "no-producer"
        )
        # One contiguous hand-over gap inside the outage window.
        assert unpublished == list(range(unpublished[0], unpublished[-1] + 1))
        assert summary["drops_by_cause"]["no-producer"] == len(unpublished) > 0
        assert flowed.outcome_digest() == plain.outcome_digest()
        assert flowed.errors.as_dict() == plain.errors.as_dict()

    @pytest.mark.parametrize("app", LIBRARY_APPS)
    def test_deterministic_inputs_fix_trace_across_seeds(self, app):
        """The library analogue of ``deterministic_camera``: with inputs
        held seed-independent, DEAR's logical trace fingerprints are
        identical for every world seed."""
        scenario = replace(SMALL_SCENARIOS[app], deterministic_inputs=True)
        runner = apps.get(app).runner("det")
        fingerprints = [runner(seed, scenario).trace_fingerprints for seed in (0, 1)]
        assert fingerprints[0] == fingerprints[1]
        assert fingerprints[0]  # non-empty: the traces recorded something


class TestSpecDispatch:
    def test_run_one_dispatches_to_library_runner(self):
        spec = ScenarioSpec(
            app="fusion", variant="det", scenario=SMALL_SCENARIOS["fusion"]
        )
        result = spec.run_one(0)
        assert result.n_frames == SMALL_SCENARIOS["fusion"].n_frames

    def test_library_spec_serializes_as_v2(self):
        spec = ScenarioSpec(app="mixedcrit", scenario=SMALL_SCENARIOS["mixedcrit"])
        data = spec.to_dict()
        assert data["format"] == "scenario-spec/v2"
        assert ScenarioSpec.from_dict(data) == spec

    def test_failover_spec_defaults_to_its_outage_plan(self):
        spec = ScenarioSpec(app="failover", scenario=SMALL_SCENARIOS["failover"])
        plan = spec.effective_faults()
        assert plan is not None and not plan.is_empty

    def test_brake_spec_defaults_to_no_faults(self):
        assert ScenarioSpec().effective_faults() is None

    def test_variant_validated_against_app_runners(self):
        with pytest.raises(ValueError):
            ScenarioSpec(app="fusion", variant="turbo")

    def test_sweep_name_includes_app_for_library_specs(self):
        assert ScenarioSpec(app="fusion").sweep_name() == "spec-fusion-det"
        assert ScenarioSpec().sweep_name() == "spec-det"
