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

The two runners load on first access (:mod:`repro._lazy`), so a stock
run does not load the DEAR variant, its transactors or the reactor
runtime.
"""

from repro._lazy import lazy_exports
from repro.apps.brake.data import (
    BrakeCommand,
    DetectedVehicle,
    Frame,
    LaneBox,
    VehicleList,
)
from repro.apps.brake.scenario import BrakeScenario
from repro.apps.brake.instrumentation import BrakeRunResult, ErrorCounters

_EXPORTS = {
    "run_nondet_brake_assistant": "nondet",
    "run_det_brake_assistant": "det",
}

__all__ = [
    "Frame",
    "LaneBox",
    "DetectedVehicle",
    "VehicleList",
    "BrakeCommand",
    "BrakeScenario",
    "ErrorCounters",
    "BrakeRunResult",
    *_EXPORTS,
]

__getattr__ = lazy_exports(__name__, _EXPORTS)
