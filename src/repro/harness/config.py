"""One frozen spec for one experiment: :class:`ScenarioSpec`.

Historically every driver took its own loose kwargs — a seed here, an
``n_frames`` there, a hand-built :class:`SwitchConfig` somewhere else.
``ScenarioSpec`` bundles *everything* that parameterizes an experiment
— the application (any entry of :mod:`repro.apps.registry`), variant,
seeds, workload scenario, a nested :class:`NetworkSpec`, an optional
:class:`~repro.network.topology.TopologySpec` fabric, STP bounds,
observability, and a :class:`~repro.faults.FaultPlan` — into a single
frozen, JSON-round-trippable value consumed uniformly by
:class:`SweepRunner`, the figure/extension drivers and every CLI
subcommand.

Serialization speaks two formats: ``scenario-spec/v2`` carries the
``app``/``network``/``topology`` fields; any spec expressible in the
legacy flattened shape (the brake app on the trivial topology) still
writes byte-identical ``scenario-spec/v1`` documents, so committed
specs, sweep-cache keys and service submissions from earlier versions
keep resolving to the same experiments.  Both formats load.

The module-level :func:`run_scenario_spec` is the picklable worker the
sweep engine fans out: ``SweepRunner().run_spec(spec)`` is the single
execution path for seeded experiments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.dear.stp import StpConfig
from repro.faults.plan import FaultPlan
from repro.network.latency import (
    LatencyModel,
    latency_model_from_dict,
    latency_model_to_dict,
)
from repro.network.switch import SwitchConfig
from repro.network.topology import TopologySpec

__all__ = [
    "NetworkSpec",
    "ScenarioSpec",
    "latency_model_to_dict",
    "latency_model_from_dict",
    "run_scenario_spec",
]


@dataclass(frozen=True)
class NetworkSpec:
    """The network half of a spec, nested (``scenario-spec/v2``).

    Carries exactly the :class:`SwitchConfig` knobs a spec may
    override; ``None`` latency models mean the app's default network
    (constant under its fixed-inputs knob, stock otherwise).
    """

    latency: LatencyModel | None = None
    loopback_latency: LatencyModel | None = None
    in_order: bool = True
    drop_probability: float = 0.0
    ns_per_byte: int = 8

    def to_dict(self) -> dict:
        return {
            "latency": (
                None if self.latency is None else latency_model_to_dict(self.latency)
            ),
            "loopback_latency": (
                None
                if self.loopback_latency is None
                else latency_model_to_dict(self.loopback_latency)
            ),
            "in_order": self.in_order,
            "drop_probability": self.drop_probability,
            "ns_per_byte": self.ns_per_byte,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkSpec":
        return cls(
            latency=(
                None
                if data.get("latency") is None
                else latency_model_from_dict(data["latency"])
            ),
            loopback_latency=(
                None
                if data.get("loopback_latency") is None
                else latency_model_from_dict(data["loopback_latency"])
            ),
            in_order=data.get("in_order", True),
            drop_probability=data.get("drop_probability", 0.0),
            ns_per_byte=data.get("ns_per_byte", 8),
        )


#: The one app the legacy ``scenario-spec/v1`` format carries; specs
#: that name no app (older v2 documents, ``ScenarioSpec()``) mean it too.
_V1_APP = "brake"


def _app_definition(name: str):
    from repro.apps import registry

    return registry.get(name)


@dataclass(frozen=True, init=False)
class ScenarioSpec:
    """Everything one experiment needs, as one frozen value.

    Attributes:
        app: which registered application runs (``repro.apps.names()``).
        variant: which of the app's runners — classically ``"det"``
            (DEAR) or ``"nondet"`` (stock).
        seeds: the seeds to sweep, in order.
        scenario: the app's workload/timing configuration.
        network: the nested :class:`NetworkSpec` (switch knobs).
        topology: optional :class:`TopologySpec` fabric override;
            ``None`` keeps the app's native fabric (the brake app's is
            the trivial single-switch world).
        stp: overrides the scenario's ``L``/``E`` bounds when set.
        observe: run each seed under :func:`repro.obs.capture` and
            attach the metrics snapshot to the result's
            ``fault_summary``-style digest.
        faults: the :class:`FaultPlan` to install; ``None`` defers to
            the app's default plan (fault-free for most apps, the crash
            window for the failover scenario).
        label: free-form experiment label (report naming only: it is
            not part of the result-store key).
    """

    app: str
    variant: str
    seeds: tuple[int, ...]
    scenario: Any
    network: NetworkSpec
    topology: TopologySpec | None
    stp: StpConfig | None
    observe: bool
    faults: FaultPlan | None
    label: str

    def __init__(
        self,
        variant: str = "det",
        seeds: tuple[int, ...] = (0,),
        scenario: Any = None,
        stp: StpConfig | None = None,
        observe: bool = False,
        faults: FaultPlan | None = None,
        label: str = "",
        *,
        app: str = _V1_APP,
        network: NetworkSpec | None = None,
        topology: TopologySpec | None = None,
    ) -> None:
        definition = _app_definition(app)
        if variant not in definition.variants():
            raise ValueError(
                f"variant must be one of {list(definition.variants())} "
                f"for app {app!r}, got {variant!r}"
            )
        if scenario is None:
            scenario = definition.default_scenario()
        seeds = tuple(seeds)
        if not seeds:
            raise ValueError("a spec needs at least one seed")
        object.__setattr__(self, "app", app)
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "network", network or NetworkSpec())
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "stp", stp)
        object.__setattr__(self, "observe", observe)
        object.__setattr__(self, "faults", faults)
        object.__setattr__(self, "label", label)

    # -- derived configuration ---------------------------------------------

    def definition(self):
        """The spec's :class:`~repro.apps.AppDefinition`."""
        return _app_definition(self.app)

    def effective_scenario(self) -> Any:
        """The scenario with the spec's STP bounds applied."""
        if self.stp is None:
            return self.scenario
        return replace(
            self.scenario,
            latency_bound_ns=self.stp.latency_bound_ns,
            clock_error_ns=self.stp.clock_error_ns,
        )

    def effective_faults(self) -> FaultPlan | None:
        """The fault plan to install: explicit, else the app default."""
        if self.faults is not None:
            return self.faults
        return self.definition().faults_for(self.effective_scenario())

    def switch_config(self) -> SwitchConfig | None:
        """The network configuration, or ``None`` for the app default.

        Any :class:`LatencyModel` plugs in here; latency models the spec
        leaves unset come from the app's default network
        (:meth:`~repro.apps.AppDefinition.network_for`).  The "is
        everything default" test compares against :class:`NetworkSpec`'s
        own defaults instead of repeating them.
        """
        if self.network == NetworkSpec() and self.topology is None:
            return None
        default = self.definition().network_for(self.effective_scenario())
        return SwitchConfig(
            latency=self.network.latency or default.latency,
            loopback_latency=self.network.loopback_latency or default.loopback_latency,
            in_order=self.network.in_order,
            drop_probability=self.network.drop_probability,
            ns_per_byte=self.network.ns_per_byte,
            topology=self.topology,
        )

    def store_name(self) -> str:
        """The result-store file of this spec's seeds.

        Derived from content only (app and variant), never from
        ``label`` or ``seeds``: ``spec-<app>-<variant>``, or the
        historical ``spec-<variant>`` for brake (see
        :meth:`~repro.apps.AppDefinition.qualified`).
        """
        return self.definition().qualified("spec", self.variant)

    def sweep_name(self) -> str:
        """Report identity of this spec's sweep: the label, if any."""
        return self.label or self.store_name()

    def content(self) -> dict:
        """:meth:`to_dict` minus ``seeds`` and ``label``: what each seed
        computes, and so the result-store key parameters."""
        data = self.to_dict()
        del data["seeds"], data["label"]
        return data

    def with_seeds(self, seeds) -> "ScenarioSpec":
        return replace(self, seeds=tuple(seeds))

    # -- execution ----------------------------------------------------------

    def run_one(self, seed: int, fault_replay=None):
        """Run a single seed of this spec (inline, no sweep engine)."""
        return run_scenario_spec(seed, self, fault_replay=fault_replay)

    # -- serialization ------------------------------------------------------

    def _is_v1_expressible(self) -> bool:
        """Whether the legacy flattened format can carry this spec."""
        return self.app == _V1_APP and self.topology is None

    def to_dict(self) -> dict:
        """JSON form; v1-expressible specs keep the v1 byte layout.

        The v1 emission path must stay byte-identical for existing
        specs: sweep-cache keys, the result store and the submit
        protocol all hash this dict.
        """
        definition = self.definition()
        common = {
            "variant": self.variant,
            "seeds": list(self.seeds),
            "scenario": definition.dump_scenario(self.scenario),
        }
        tail = {
            "stp": (
                None
                if self.stp is None
                else {
                    "latency_bound_ns": self.stp.latency_bound_ns,
                    "clock_error_ns": self.stp.clock_error_ns,
                }
            ),
            "observe": self.observe,
            "faults": None if self.faults is None else self.faults.to_dict(),
            "label": self.label,
        }
        if self._is_v1_expressible():
            return {
                "format": "scenario-spec/v1",
                **common,
                **self.network.to_dict(),
                **tail,
            }
        return {
            "format": "scenario-spec/v2",
            "app": self.app,
            **common,
            "network": self.network.to_dict(),
            "topology": None if self.topology is None else self.topology.to_dict(),
            **tail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        fmt = data.get("format")
        if fmt == "scenario-spec/v1":
            app = _V1_APP
            network = NetworkSpec.from_dict(data)
            topology = None
        elif fmt == "scenario-spec/v2":
            app = data.get("app", _V1_APP)
            network = NetworkSpec.from_dict(data.get("network") or {})
            topology = (
                None
                if data.get("topology") is None
                else TopologySpec.from_dict(data["topology"])
            )
        else:
            raise ValueError(f"not a scenario spec: {fmt!r}")
        definition = _app_definition(app)
        return cls(
            app=app,
            variant=data.get("variant", "det"),
            seeds=tuple(data.get("seeds", (0,))),
            scenario=definition.load_scenario(data.get("scenario", {})),
            network=network,
            topology=topology,
            stp=None if data.get("stp") is None else StpConfig(**data["stp"]),
            observe=data.get("observe", False),
            faults=(
                None
                if data.get("faults") is None
                else FaultPlan.from_dict(data["faults"])
            ),
            label=data.get("label", ""),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        return cls.from_json(Path(path).read_text())


def run_scenario_spec(
    seed: int,
    spec: ScenarioSpec,
    fault_replay=None,
    fault_universe=None,
    fault_checkpointer=None,
):
    """Picklable sweep worker: one seed of *spec*.

    Dispatches through :mod:`repro.apps.registry` — any registered
    app/variant runs through this single path.  Returns the runner's
    :class:`BrakeRunResult`-shaped value; with ``spec.observe`` the run
    executes under :func:`repro.obs.capture` and the metrics snapshot
    is merged into ``result.fault_summary`` (the per-run digest channel
    that survives pickling).  *fault_universe* and *fault_checkpointer*
    feed the snapshot engine's fault-replay seam (see
    :mod:`repro.snapshot`).
    """
    scenario = spec.effective_scenario()
    switch_config = spec.switch_config()
    experiment = spec.definition().runner(spec.variant)

    def execute():
        return experiment(
            seed,
            scenario,
            switch_config=switch_config,
            fault_plan=spec.faults,
            fault_replay=fault_replay,
            fault_universe=fault_universe,
            fault_checkpointer=fault_checkpointer,
        )

    if not spec.observe:
        return execute()
    from repro.obs.context import capture

    with capture() as observation:
        result = execute()
    digest = dict(result.fault_summary or {})
    digest["metrics"] = observation.metrics.snapshot()
    return replace(result, fault_summary=digest)
