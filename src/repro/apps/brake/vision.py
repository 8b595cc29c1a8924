"""Synthetic driving scenario and raster renderer.

Stands in for the camera of the paper's demonstrator.  The scene is a
**pure function of the frame index** (the scenario seed only selects
among scenario variants), so every run — stock or DEAR, any platform
seed — sees exactly the same world.  That is what lets the benchmarks
attribute output differences entirely to the middleware.

The scenario models a two-lane road:

* the ego lane's lateral center drifts slowly (road curvature);
* a lead vehicle stays in the ego lane with an oscillating gap,
  periodically closing fast enough to demand emergency braking;
* an adjacent-lane vehicle periodically cuts into the ego lane at
  short range (the other braking trigger) and leaves again.

:func:`render_frame` additionally rasterizes a frame into a small numpy
luminance image (lane markings + vehicle blobs), and
:mod:`repro.apps.brake.logic` contains an image-based detection path
operating on it, for when a "real" vision workload is wanted.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.apps.brake.data import Frame, GroundTruthVehicle

if TYPE_CHECKING:
    import numpy as np

#: Image dimensions of the rendered frame.
IMAGE_WIDTH = 64
IMAGE_HEIGHT = 48

#: Lateral extent covered by the image, in meters (centered on x = 0).
VIEW_WIDTH_M = 12.0
#: Distance covered by the image rows, in meters.
VIEW_DEPTH_M = 80.0


class SceneGenerator:
    """Generates the deterministic frame sequence.

    Args:
        period_ns: nominal frame period (used for capture timestamps and
            speed derivatives).
        variant: selects one of several scenario parameterizations, so
            different experiments can use different roads while staying
            reproducible.
    """

    def __init__(self, period_ns: int, variant: int = 0) -> None:
        self.period_ns = period_ns
        self.variant = variant
        self._ego_speed = 25.0  # m/s, roughly 90 km/h
        self._lane_width = 3.6
        # Variant-dependent phases keep different roads deterministic.
        self._phase = 0.37 * (variant + 1)

    @property
    def ego_speed_mps(self) -> float:
        """Constant ego speed of the scenario."""
        return self._ego_speed

    def lane_center(self, seq: int) -> float:
        """Lateral position of the ego lane center at frame *seq*."""
        return 1.5 * math.sin(2 * math.pi * seq / 97.0 + self._phase)

    def _lead_distance(self, seq: int) -> float:
        return 36.0 + 26.0 * math.cos(2 * math.pi * seq / 240.0 + self._phase)

    def _lead_vehicle(self, seq: int) -> GroundTruthVehicle:
        distance = self._lead_distance(seq)
        next_distance = self._lead_distance(seq + 1)
        dt = self.period_ns / 1e9
        speed = self._ego_speed + (next_distance - distance) / dt
        lateral = self.lane_center(seq) + 0.3 * math.sin(
            2 * math.pi * seq / 137.0
        )
        return GroundTruthVehicle(1, distance, lateral, speed)

    def _cut_in_offset(self, seq: int) -> float:
        """Lateral offset of the adjacent vehicle from the lane center.

        3.5 m (next lane) most of the time; during each cut-in window it
        ramps into the ego lane and back out.
        """
        cycle = seq % 500
        if 300 <= cycle < 340:  # cutting in
            progress = (cycle - 300) / 40.0
            return 3.5 * (1.0 - progress)
        if 340 <= cycle < 380:  # inside the ego lane
            return 0.0
        if 380 <= cycle < 420:  # leaving
            progress = (cycle - 380) / 40.0
            return 3.5 * progress
        return 3.5

    def _adjacent_vehicle(self, seq: int) -> GroundTruthVehicle:
        distance = 18.0 + 6.0 * math.cos(2 * math.pi * seq / 173.0)
        lateral = self.lane_center(seq) + self._cut_in_offset(seq)
        speed = self._ego_speed - 10.0  # much slower: urgent when in lane
        return GroundTruthVehicle(2, distance, lateral, speed)

    def frame(self, seq: int) -> Frame:
        """The frame with index *seq* (pure function)."""
        return Frame(
            seq=seq,
            capture_time_ns=seq * self.period_ns,
            ego_speed_mps=self._ego_speed,
            lane_center_m=self.lane_center(seq),
            lane_width_m=self._lane_width,
            vehicles=(self._lead_vehicle(seq), self._adjacent_vehicle(seq)),
        )


def _column_for_lateral(lateral_m: float) -> int:
    normalized = (lateral_m + VIEW_WIDTH_M / 2) / VIEW_WIDTH_M
    return int(min(max(normalized * (IMAGE_WIDTH - 1), 0), IMAGE_WIDTH - 1))


def _row_for_distance(distance_m: float) -> int:
    normalized = min(max(distance_m / VIEW_DEPTH_M, 0.0), 1.0)
    return int((1.0 - normalized) * (IMAGE_HEIGHT - 1))


def render_frame(frame: Frame) -> np.ndarray:
    """Rasterize *frame* into an 8-bit luminance image.

    Lane markings are bright vertical curves at the lane boundaries;
    vehicles are bright rectangles whose size shrinks with distance.
    """
    import numpy as np

    image = np.zeros((IMAGE_HEIGHT, IMAGE_WIDTH), dtype=np.uint8)
    half = frame.lane_width_m / 2
    for boundary in (frame.lane_center_m - half, frame.lane_center_m + half):
        column = _column_for_lateral(boundary)
        image[:, column] = np.maximum(image[:, column], 180)
    for vehicle in frame.vehicles:
        row = _row_for_distance(vehicle.distance_m)
        column = _column_for_lateral(vehicle.lateral_m)
        size = max(1, int(8 * 10.0 / max(vehicle.distance_m, 5.0)))
        row_lo = max(0, row - size // 2)
        row_hi = min(IMAGE_HEIGHT, row + size // 2 + 1)
        col_lo = max(0, column - size)
        col_hi = min(IMAGE_WIDTH, column + size + 1)
        image[row_lo:row_hi, col_lo:col_hi] = 255
    return image
