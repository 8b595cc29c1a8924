"""The unified experiment API: ScenarioSpec round-trips and execution."""

import argparse
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.brake import BrakeScenario
from repro.apps.brake.det import run_det_brake_assistant
from repro.dear import StpConfig
from repro.faults import FaultPlan
from repro.harness import NetworkSpec, ScenarioSpec, SweepRunner
from repro.harness.config import latency_model_from_dict, latency_model_to_dict
from repro.network import (
    ConstantLatency,
    GammaLatency,
    SpikyLatency,
    UniformLatency,
)
from repro.network.topology import TopologySpec
from repro.time import MS

SMALL = BrakeScenario(n_frames=12, deterministic_camera=True)


class TestSerialization:
    def test_default_spec_round_trips(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_fully_loaded_spec_round_trips(self):
        spec = ScenarioSpec(
            variant="nondet",
            seeds=(0, 1, 2),
            scenario=BrakeScenario(n_frames=17),
            network=NetworkSpec(
                latency=SpikyLatency(
                    base=GammaLatency(base_ns=200_000), spike_probability=0.01,
                    spike_ns=2 * MS,
                ),
                loopback_latency=ConstantLatency(40_000),
                in_order=False,
                drop_probability=0.02,
                ns_per_byte=4,
            ),
            stp=StpConfig(latency_bound_ns=3 * MS, clock_error_ns=1 * MS),
            observe=True,
            faults=FaultPlan.camera_faults(seed=9, drop=0.1, label="rt"),
            label="everything",
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_save_load(self, tmp_path):
        spec = ScenarioSpec(seeds=(3, 4), label="disk")
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ScenarioSpec.load(path) == spec

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict({"format": "something-else"})

    @pytest.mark.parametrize(
        "model",
        [
            ConstantLatency(300_000),
            UniformLatency(low_ns=100_000, high_ns=500_000),
            GammaLatency(base_ns=200_000, shape=1.5),
            SpikyLatency(
                base=UniformLatency(low_ns=1, high_ns=2),
                spike_probability=0.5,
                spike_ns=7,
            ),
        ],
    )
    def test_every_latency_model_round_trips(self, model):
        assert latency_model_from_dict(latency_model_to_dict(model)) == model

    def test_unknown_latency_model_rejected(self):
        with pytest.raises(ValueError):
            latency_model_from_dict({"model": "QuantumLatency"})

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(variant="maybe")
        with pytest.raises(ValueError):
            ScenarioSpec(seeds=())


class TestDerivedConfiguration:
    def test_default_spec_uses_stock_network(self):
        assert ScenarioSpec().switch_config() is None

    def test_any_override_builds_a_switch_config(self):
        spec = ScenarioSpec(
            scenario=SMALL, network=NetworkSpec(drop_probability=0.05)
        )
        config = spec.switch_config()
        assert config is not None
        assert config.drop_probability == 0.05
        # Deterministic-camera runs keep their constant-latency default.
        assert isinstance(config.latency, ConstantLatency)

    def test_latency_model_plugs_in(self):
        model = UniformLatency(low_ns=100_000, high_ns=200_000)
        config = ScenarioSpec(network=NetworkSpec(latency=model)).switch_config()
        assert config.latency == model

    def test_stp_overrides_scenario_bounds(self):
        spec = ScenarioSpec(
            scenario=SMALL,
            stp=StpConfig(latency_bound_ns=7 * MS, clock_error_ns=2 * MS),
        )
        effective = spec.effective_scenario()
        assert effective.latency_bound_ns == 7 * MS
        assert effective.clock_error_ns == 2 * MS
        assert spec.scenario.latency_bound_ns != 7 * MS


class TestFromArgs:
    def test_spec_file_wins(self, tmp_path):
        saved = ScenarioSpec(seeds=(5, 6), label="from-disk")
        path = tmp_path / "spec.json"
        saved.save(path)
        args = argparse.Namespace(spec=str(path), seeds=99, frames=1)
        assert ScenarioSpec.from_args(args) == saved

    def test_spec_file_variant_override(self, tmp_path):
        saved = ScenarioSpec(variant="det")
        path = tmp_path / "spec.json"
        saved.save(path)
        args = argparse.Namespace(spec=str(path))
        assert ScenarioSpec.from_args(args, variant="nondet").variant == "nondet"

    def test_loose_flags_fold_in(self, tmp_path):
        plan = FaultPlan.camera_faults(seed=2, drop=0.3)
        plan_path = tmp_path / "plan.json"
        plan.save(plan_path)
        args = argparse.Namespace(
            spec=None,
            seeds=3,
            frames=20,
            drop_probability=0.01,
            plan=str(plan_path),
        )
        spec = ScenarioSpec.from_args(args, variant="nondet")
        assert spec.seeds == (0, 1, 2)
        assert spec.scenario.n_frames == 20
        assert spec.network.drop_probability == 0.01
        assert spec.faults == plan
        assert spec.variant == "nondet"

    def test_single_seed_fallback(self):
        spec = ScenarioSpec.from_args(argparse.Namespace(seed=7))
        assert spec.seeds == (7,)


class TestExecution:
    def test_run_spec_matches_direct_run(self):
        spec = ScenarioSpec(scenario=SMALL, seeds=(0, 1), label="exec")
        sweep = SweepRunner(workers=1, use_cache=False)
        results = sweep.run_spec(spec).values()
        direct = run_det_brake_assistant(0, SMALL)
        assert results[0].commands == direct.commands
        assert results[0].trace_fingerprints == direct.trace_fingerprints

    def test_observe_attaches_metrics(self):
        spec = ScenarioSpec(scenario=SMALL, observe=True)
        result = spec.run_one(0)
        assert "metrics" in result.fault_summary
        assert isinstance(result.fault_summary["metrics"], dict)

    def test_faulty_spec_carries_its_plan(self):
        plan = FaultPlan.camera_faults(seed=7, drop=0.15)
        spec = ScenarioSpec(scenario=SMALL, faults=plan)
        result = spec.run_one(0)
        assert result.fault_summary["fault_seed"] == 7

    def test_run_seeds_shim_is_gone(self):
        with pytest.raises(ImportError):
            from repro.harness import run_seeds  # noqa: F401


class TestDriverIntegration:
    def test_figure5_accepts_a_spec(self):
        from repro.harness.figures import figure5

        spec = ScenarioSpec(
            variant="nondet", seeds=(0, 1), scenario=BrakeScenario(n_frames=12)
        )
        result = figure5(sweep=SweepRunner(workers=1, use_cache=False), spec=spec)
        assert len(result.runs) == 2

    def test_det_case_study_accepts_a_spec(self):
        from repro.harness.figures import det_case_study

        spec = ScenarioSpec(seeds=(0, 1), scenario=replace(SMALL, n_frames=10))
        result = det_case_study(
            sweep=SweepRunner(workers=1, use_cache=False), spec=spec
        )
        assert result.commands_identical
        assert result.traces_identical


class TestNetworkSpec:
    def test_default_round_trips(self):
        assert NetworkSpec.from_dict(NetworkSpec().to_dict()) == NetworkSpec()

    def test_loaded_round_trips(self):
        network = NetworkSpec(
            latency=UniformLatency(1 * MS, 3 * MS),
            loopback_latency=ConstantLatency(20_000),
            in_order=False,
            drop_probability=0.05,
            ns_per_byte=2,
        )
        assert NetworkSpec.from_dict(network.to_dict()) == network


class TestV1Compatibility:
    FIXTURE = Path(__file__).parent / "data" / "scenario_spec_v1.json"

    def test_fixture_loads(self):
        spec = ScenarioSpec.load(self.FIXTURE)
        assert spec.app == "brake"
        assert spec.topology is None
        assert spec.variant == "nondet"
        assert spec.scenario.n_frames == 40

    def test_fixture_re_emits_byte_identical_v1(self):
        """A v1 file must survive load -> to_dict unchanged: the sweep
        cache, result store and submit protocol all hash this dict."""
        stored = json.loads(self.FIXTURE.read_text())
        spec = ScenarioSpec.from_dict(stored)
        assert spec.to_dict() == stored

    def test_fixture_sweep_cache_key_is_stable(self):
        """Same name + params material => same cache key as pre-v2."""
        spec = ScenarioSpec.load(self.FIXTURE)
        assert spec.sweep_name() == "v1-fixture"  # explicit label wins
        assert replace(spec, label="").sweep_name() == "spec-nondet"
        material = json.dumps(
            {"spec": spec.to_dict()}, sort_keys=True, default=repr
        )
        assert material == json.dumps(
            {"spec": json.loads(self.FIXTURE.read_text())},
            sort_keys=True,
            default=repr,
        )

    def test_brake_defaults_still_emit_v1(self):
        assert ScenarioSpec().to_dict()["format"] == "scenario-spec/v1"

    def test_topology_forces_v2(self):
        spec = ScenarioSpec(topology=TopologySpec.trivial(("camera", "fusion")))
        assert spec.to_dict()["format"] == "scenario-spec/v2"
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def _topologies():
    constant = st.integers(min_value=0, max_value=10 * MS).map(ConstantLatency)
    node_names = st.lists(
        st.sampled_from(["ecu-a", "ecu-b", "ecu-c", "ecu-d", "ecu-e"]),
        min_size=1,
        max_size=5,
        unique=True,
    )
    stars = st.builds(
        TopologySpec.star,
        nodes=node_names.map(tuple),
        latency=st.none() | constant,
        ns_per_byte=st.none() | st.integers(min_value=0, max_value=64),
    )
    chains = st.builds(
        TopologySpec.chain,
        groups=st.just((("ecu-a", "ecu-b"), ("ecu-c",), ("ecu-d",))),
        trunk_latency=st.none() | constant,
        trunk_ns_per_byte=st.none() | st.integers(min_value=0, max_value=64),
    )
    return stars | chains


def _networks():
    models = st.one_of(
        st.none(),
        st.integers(min_value=0, max_value=10 * MS).map(ConstantLatency),
        st.tuples(
            st.integers(min_value=0, max_value=1 * MS),
            st.integers(min_value=1 * MS, max_value=10 * MS),
        ).map(lambda pair: UniformLatency(*pair)),
    )
    return st.builds(
        NetworkSpec,
        latency=models,
        loopback_latency=models,
        in_order=st.booleans(),
        drop_probability=st.floats(min_value=0.0, max_value=1.0),
        ns_per_byte=st.integers(min_value=0, max_value=64),
    )


def _stps():
    return st.none() | st.builds(
        StpConfig,
        latency_bound_ns=st.integers(min_value=0, max_value=100 * MS),
        clock_error_ns=st.integers(min_value=0, max_value=10 * MS),
    )


def _fault_plans():
    return st.none() | st.builds(
        lambda seed, drop: FaultPlan.camera_faults(seed=seed, drop=drop),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.0, max_value=1.0),
    )


class TestV2PropertyRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        topology=_topologies(),
        network=_networks(),
        stp=_stps(),
        faults=_fault_plans(),
        variant=st.sampled_from(["det", "nondet"]),
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**31 - 1),
            min_size=1,
            max_size=4,
        ).map(tuple),
        observe=st.booleans(),
        label=st.sampled_from(["", "prop", "x y z"]),
    )
    def test_v2_json_round_trip(
        self, topology, network, stp, faults, variant, seeds, observe, label
    ):
        """scenario-spec/v2: to_json -> from_json is the identity over
        topology x network x stp x faults x bookkeeping fields."""
        spec = ScenarioSpec(
            variant=variant,
            seeds=seeds,
            network=network,
            topology=topology,
            stp=stp,
            faults=faults,
            observe=observe,
            label=label,
        )
        data = spec.to_dict()
        assert data["format"] == "scenario-spec/v2"
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_dict() == data
