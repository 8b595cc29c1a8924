"""The paper's applications and the pluggable app registry.

* :mod:`repro.apps.counter` — the Figure 1 client/server example: a
  naive client issues ``set_value(1); add(2); get_value()`` without
  awaiting the futures; the stock AP runtime prints 0, 1, 2 or 3
  depending on thread scheduling, while the DEAR variant always
  prints 3.
* :mod:`repro.apps.brake` — the brake assistant case study of
  Section IV, in the stock (nondeterministic) and DEAR (deterministic)
  variants.
* :mod:`repro.apps.lib` — the multi-ECU scenario library (sensor
  fusion, SOME/IP SD failover, mixed criticality), each on a
  non-trivial :class:`~repro.network.topology.TopologySpec`.

Apps register themselves via :func:`repro.apps.register`; everything
downstream (``ScenarioSpec``, observed runs, every CLI subcommand)
dispatches through the registry instead of hardcoding variants.
"""

from repro.apps.registry import AppDefinition, apps, get, names, register


def _register_brake() -> None:
    from repro.apps.brake.scenario import BrakeScenario

    register(
        AppDefinition(
            name="brake",
            title="Brake assistant (Section IV)",
            description=(
                "Camera -> Preprocessing -> Computer Vision -> EBA on two "
                "ECUs and one switch; the paper's case study."
            ),
            runners={
                "det": "repro.apps.brake.det:run_det_brake_assistant",
                "nondet": "repro.apps.brake.nondet:run_nondet_brake_assistant",
            },
            scenario_type=BrakeScenario,
            recipe="repro.apps.brake.nondet:brake_recipe",
            library=False,
        )
    )


_register_brake()

__all__ = ["AppDefinition", "register", "get", "names", "apps"]
