"""The multi-ECU scenario library.

Three ready-made applications, each on a non-trivial
:class:`~repro.network.topology.TopologySpec` and each shipped in a
stock (``nondet``) and a DEAR (``det``) variant:

* ``fusion`` — three sensor ECUs fan into a fusion ECU; misaligned
  fan-in groups are the hazard (:mod:`repro.apps.lib.fusion`);
* ``failover`` — SOME/IP SD service failover while the primary
  producer ECU crashes (:mod:`repro.apps.lib.failover`);
* ``mixedcrit`` — a critical control flow sharing an inter-switch
  trunk with bulk telemetry (:mod:`repro.apps.lib.mixedcrit`).

Importing this package registers the apps; everything downstream
(``ScenarioSpec``, observed runs, every CLI subcommand) picks them up
through :mod:`repro.apps.registry`.
"""

from repro._lazy import lazy_exports
from repro.apps.lib.scenarios import (
    FailoverScenario,
    FusionScenario,
    MixedCriticalityScenario,
)
from repro.apps.registry import AppDefinition, register

#: The run plumbing loads on first access: registering the apps needs
#: only their scenario types.
_EXPORTS = {
    "LIB_ERROR_TYPES": "common",
    "PipelineErrors": "common",
    "SinkCommand": "common",
}

__all__ = [
    *_EXPORTS,
    "FusionScenario",
    "FailoverScenario",
    "MixedCriticalityScenario",
]

__getattr__ = lazy_exports(__name__, _EXPORTS)


def _register_library() -> None:
    register(
        AppDefinition(
            name="fusion",
            title="Multi-sensor fusion (fan-in ordering)",
            description=(
                "Camera/radar/lidar ECUs fan into a fusion ECU across two "
                "switches; groups must align by sequence number."
            ),
            runners={
                "det": "repro.apps.lib.fusion:run_det_fusion",
                "nondet": "repro.apps.lib.fusion:run_nondet_fusion",
            },
            scenario_type=FusionScenario,
            recipe="repro.apps.lib.fusion:fusion_recipe",
            input_threads=("camera", "radar", "lidar"),
        )
    )
    register(
        AppDefinition(
            name="failover",
            title="SOME/IP SD service failover (node crash)",
            description=(
                "A standby producer takes over a service instance while the "
                "primary ECU crashes; discovery TTLs drive the hand-over."
            ),
            runners={
                "det": "repro.apps.lib.failover:run_det_failover",
                "nondet": "repro.apps.lib.failover:run_nondet_failover",
            },
            scenario_type=FailoverScenario,
            recipe="repro.apps.lib.failover:failover_recipe",
            input_threads=("tick",),
        )
    )
    register(
        AppDefinition(
            name="mixedcrit",
            title="Mixed criticality (shared trunk)",
            description=(
                "A critical control flow shares a slow inter-switch trunk "
                "with bursty bulk telemetry."
            ),
            runners={
                "det": "repro.apps.lib.mixedcrit:run_det_mixedcrit",
                "nondet": "repro.apps.lib.mixedcrit:run_nondet_mixedcrit",
            },
            scenario_type=MixedCriticalityScenario,
            recipe="repro.apps.lib.mixedcrit:mixedcrit_recipe",
            input_threads=("sensor", "telemetry"),
        )
    )


_register_library()
