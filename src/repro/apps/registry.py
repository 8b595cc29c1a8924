"""Pluggable application/scenario registry.

An :class:`AppDefinition` names an application, maps each variant to
its runner, names the app's world recipe, and carries the scenario-type
plumbing ``ScenarioSpec`` needs to serialize specs for any app.
Runners and recipe are ``"module:function"`` strings, resolved lazily,
so listing apps never pays for importing their worlds.  Registering an
app makes it appear in every subcommand — ``explore``, ``faults``,
``flows``, ``submit`` — for free.

Recipe contract: ``recipe(scenario)`` returns the app's deployment as
``(hosts, topology, faults)`` — its ECUs as ordered ``(name,
PlatformConfig)`` pairs, its native
:class:`~repro.network.topology.TopologySpec` (``None``: one plain
switch) and the :class:`~repro.faults.FaultPlan` the scenario is *about*
(``None`` for most apps).  :meth:`AppDefinition.build_world` is the one
place that turns it into a world: it adds the app's default network
(:meth:`AppDefinition.network_for`) and default faults, then calls
:func:`repro.ara.build_world`.

Runner contract: ``runner(seed, scenario, switch_config=None,
fault_plan=None)`` builds its world with
:meth:`AppDefinition.build_world` (passing those arguments through),
records its outcome through a :class:`~repro.apps.lib.common.RunLedger`
(send stamps at the source, commands and latencies at the sink, flow
drops, its reactor environments and DEAR transactors) and returns the
ledger's :class:`~repro.apps.brake.instrumentation.BrakeRunResult`
(``errors``/``commands``/``trace_fingerprints``/``outcome_digest()``).
Runners must be picklable module-level callables — the sweep engine
fans them out to worker processes.  Replay is not part of the contract:
schedule replay (:func:`repro.sim.rng.stream_hooks`), fault replay
(:func:`repro.faults.replay`) and observation
(:func:`repro.obs.capture`) are installed around the run.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Callable, Mapping

__all__ = ["AppDefinition", "register", "get", "names", "apps"]


def _generic_scenario_to_dict(scenario: Any) -> dict:
    """Field-by-field dict of a (possibly nested) scenario dataclass.

    Nested dataclass values (e.g. :class:`StageTiming`) flatten to dicts
    of their fields — the same shape the brake converters produce.
    """
    out: dict[str, Any] = {}
    for f in fields(scenario):
        value = getattr(scenario, f.name)
        if is_dataclass(value) and not isinstance(value, type):
            value = {g.name: getattr(value, g.name) for g in fields(value)}
        out[f.name] = value
    return out


def _generic_scenario_from_dict(scenario_type: type) -> Callable[[dict], Any]:
    def loader(data: dict) -> Any:
        kwargs: dict[str, Any] = {}
        for f in fields(scenario_type):
            if f.name not in data:
                continue
            value = data[f.name]
            if isinstance(value, dict):
                default = getattr(scenario_type(), f.name)
                value = type(default)(**value)
            elif isinstance(value, list):
                value = tuple(value)
            kwargs[f.name] = value
        return scenario_type(**kwargs)

    return loader


@dataclass(frozen=True)
class AppDefinition:
    """One registered application and everything the harness needs."""

    name: str
    title: str
    #: variant -> ``"module:function"``, resolved lazily and cached.
    runners: Mapping[str, str]
    scenario_type: type
    #: ``"module:function"`` of the world recipe: scenario ->
    #: ``(hosts, topology, faults)``, resolved lazily and cached.
    recipe: str = ""
    description: str = ""
    #: Library scenarios show up as such in the ``repro library``
    #: listing and qualified names; the brake app predates the library.
    library: bool = True
    scenario_to_dict: Callable[[Any], dict] | None = None
    scenario_from_dict: Callable[[dict], Any] | None = None
    #: Environment/sensor thread names: explore's determinism verifier
    #: suppresses preemptions landing on these (delaying an input driver
    #: changes the input timeline, not the SUT's scheduling).
    input_threads: tuple[str, ...] = ("camera",)
    _resolved: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.runners:
            raise ValueError(f"app {self.name!r} needs at least one runner")
        if not self.recipe:
            raise ValueError(f"app {self.name!r} needs a world recipe")

    def variants(self) -> tuple[str, ...]:
        return tuple(sorted(self.runners))

    def _resolve(self, target: str) -> Callable:
        """The (lazily imported, cached) function named by *target*."""
        func = self._resolved.get(target)
        if func is None:
            module_name, _, func_name = target.partition(":")
            func = getattr(importlib.import_module(module_name), func_name)
            self._resolved[target] = func
        return func

    def runner(self, variant: str) -> Callable:
        """The (lazily imported) runner for *variant*."""
        target = self.runners.get(variant)
        if target is None:
            raise ValueError(
                f"app {self.name!r} has no variant {variant!r}; "
                f"known: {list(self.variants())}"
            )
        return self._resolve(target)

    def default_scenario(self) -> Any:
        return self.scenario_type()

    def scenario(self, frames: int | None = None, default_frames: int | None = None):
        """The default scenario at *frames* frames.

        With *frames* ``None`` a library scenario keeps its own size;
        brake, which predates the library, runs *default_frames* (each
        subcommand keeps its historical default).
        """
        if frames is None and not self.library:
            frames = default_frames
        scenario = self.default_scenario()
        return scenario if frames is None else replace(scenario, n_frames=frames)

    def explore_scenario(self, frames: int, fixed_inputs: bool = False):
        """The small, hazard-prone scenario ``explore`` runs, with the
        :attr:`fixed_inputs_knob` set to *fixed_inputs*.

        Brake uses its calibration scenario, tightened to provoke
        failures; library scenarios are hazard-prone by construction
        and just get the frame count applied.
        """
        if self.library:
            scenario = self.scenario(frames)
        else:
            from repro.explore.scenarios import calibration_scenario

            scenario = calibration_scenario(frames)
        return self.with_fixed_inputs(scenario, fixed_inputs)

    def with_fixed_inputs(self, scenario: Any, on: bool = True):
        """*scenario* with its :attr:`fixed_inputs_knob` set to *on*."""
        return replace(scenario, **{self.fixed_inputs_knob: on})

    def dump_scenario(self, scenario: Any) -> dict:
        convert = self.scenario_to_dict or _generic_scenario_to_dict
        return convert(scenario)

    def load_scenario(self, data: dict) -> Any:
        convert = self.scenario_from_dict or _generic_scenario_from_dict(
            self.scenario_type
        )
        return convert(data)

    def topology_for(self, scenario: Any):
        """The app's native fabric for *scenario* (``None``: one switch)."""
        return self._resolve(self.recipe)(scenario)[1]

    def faults_for(self, scenario: Any):
        """The fault plan *scenario* is about, e.g. failover's node crash."""
        return self._resolve(self.recipe)(scenario)[2]

    def network_for(self, scenario: Any):
        """The app's default network: :data:`~repro.network.CALM_LAN`'s
        constant latencies while the :attr:`fixed_inputs_knob` is set
        (physical arrival times then match across world seeds), else
        the stock :class:`~repro.network.SwitchConfig`."""
        from repro.network import CALM_LAN, SwitchConfig

        if getattr(scenario, self.fixed_inputs_knob, False):
            return CALM_LAN
        return SwitchConfig()

    def build_world(
        self,
        seed: int,
        scenario: Any,
        switch_config=None,
        fault_plan=None,
    ):
        """The app's world for one run of *scenario*.

        *switch_config* and *fault_plan* override the app defaults; a
        config without a topology gets the native fabric embedded, so
        caller-supplied network knobs compose with it.
        """
        from repro.ara import build_world

        hosts, topology, faults = self._resolve(self.recipe)(scenario)
        if switch_config is None:
            switch_config = self.network_for(scenario)
        if switch_config.topology is None:
            switch_config = replace(switch_config, topology=topology)
        return build_world(
            seed, hosts, switch_config, faults if fault_plan is None else fault_plan
        )

    def qualified(self, prefix: str, variant: str, sep: str = "-") -> str:
        """``<prefix>-<app>-<variant>``, or ``<prefix>-<variant>`` for brake.

        The one legacy-name rule: sweep names, run labels, spec store
        names and (``prefix=""``, ``sep=" "``) display tags.  The brake
        app predates the library and keeps the unqualified names its
        result stores were written under; :meth:`sweep_params` follows.
        """
        words = (prefix, self.name, variant) if self.library else (prefix, variant)
        return sep.join(word for word in words if word)

    def sweep_params(self, **params: Any) -> dict:
        """Sweep-key *params*, plus ``"app"`` where :meth:`qualified` adds it."""
        return {**params, "app": self.name} if self.library else params

    @property
    def fixed_inputs_knob(self) -> str:
        """The scenario flag holding inputs fixed per seed (calm hosts,
        constant latencies, no input jitter): brake's original
        ``deterministic_camera``, else the library's ``deterministic_inputs``.
        """
        if "deterministic_camera" in {f.name for f in fields(self.scenario_type)}:
            return "deterministic_camera"
        return "deterministic_inputs"


_REGISTRY: dict[str, AppDefinition] = {}
_BUILTINS_LOADED = False


def register(app: AppDefinition) -> AppDefinition:
    """Add *app* to the registry (idempotent per name/definition)."""
    existing = _REGISTRY.get(app.name)
    if existing is not None and existing != app:
        raise ValueError(f"app {app.name!r} already registered differently")
    _REGISTRY[app.name] = app
    return app


def _ensure_builtins() -> None:
    """Import the packages that register the built-in apps."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import repro.apps  # noqa: F401  (registers brake)
    import repro.apps.lib  # noqa: F401  (registers the scenario library)


def get(name: str) -> AppDefinition:
    """Look up a registered app by name."""
    _ensure_builtins()
    app = _REGISTRY.get(name)
    if app is None:
        raise KeyError(f"unknown app {name!r}; known: {names()}")
    return app


def names(library: bool | None = None) -> tuple[str, ...]:
    """Registered app names, optionally filtered to library scenarios."""
    _ensure_builtins()
    return tuple(
        sorted(
            name
            for name, app in _REGISTRY.items()
            if library is None or app.library == library
        )
    )


def apps() -> tuple[AppDefinition, ...]:
    """All registered apps, sorted by name."""
    _ensure_builtins()
    return tuple(_REGISTRY[name] for name in names())
