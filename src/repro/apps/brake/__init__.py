"""The brake assistant case study (Section IV of the paper).

A five-stage pipeline — Video Provider, Video Adapter, Preprocessing,
Computer Vision, Emergency Brake Assistant (EBA) — distributed over two
platforms (Figure 4):

* :mod:`repro.apps.brake.data` — the data types flowing through the
  pipeline and their wire serializations;
* :mod:`repro.apps.brake.vision` — the synthetic driving scenario
  standing in for the camera, plus an optional raster renderer;
* :mod:`repro.apps.brake.logic` — the *shared* computational logic of
  each stage (both variants call exactly these functions, as the paper's
  port reuses the original logic);
* :mod:`repro.apps.brake.instrumentation` — error counters and the
  oracle comparison;
* :mod:`repro.apps.brake.scenario` — workload and timing configuration;
* :mod:`repro.apps.brake.nondet` — the stock AP implementation with
  periodic callbacks and one-slot input buffers (Section IV.A);
* :mod:`repro.apps.brake.det` — the DEAR implementation (Section IV.B).

Every public name loads on first access (:mod:`repro._lazy`): listing
the registered apps imports :mod:`~repro.apps.brake.scenario` and no
wire type, and a stock run does not load the DEAR variant, its
transactors or the reactor runtime.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Frame": "data",
    "LaneBox": "data",
    "DetectedVehicle": "data",
    "VehicleList": "data",
    "BrakeCommand": "data",
    "BrakeScenario": "scenario",
    "ErrorCounters": "instrumentation",
    "BrakeRunResult": "instrumentation",
    "run_nondet_brake_assistant": "nondet",
    "run_det_brake_assistant": "det",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
