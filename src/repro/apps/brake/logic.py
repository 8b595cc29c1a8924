"""The computational logic of the brake-assistant stages.

Both pipeline variants call exactly these functions — the paper's DEAR
port "calls the original logic to process the data associated with the
incoming event" — so any output difference between the variants comes
from the communication middleware, not from the algorithms.

Two detection paths are provided:

* the closed-form path reads the frame's scene state directly (fast;
  used by the error-prevalence experiments that process thousands of
  frames);
* the image path (``use_image=True``) rasterizes the frame and runs a
  small classical vision pipeline (column-histogram lane finding, blob
  detection, size-based ranging) — slower but a genuine vision workload.

Both paths misbehave in the same way when fed *misaligned* inputs: a
stale lane box shifts the in-lane test, which is exactly how the stock
pipeline's input mismatches turn into wrong braking decisions.
"""

from __future__ import annotations

from repro.apps.brake.data import (
    BrakeCommand,
    DetectedVehicle,
    Frame,
    LaneBox,
    VehicleList,
)
from repro.apps.brake.vision import (
    IMAGE_HEIGHT,
    IMAGE_WIDTH,
    VIEW_DEPTH_M,
    VIEW_WIDTH_M,
    render_frame,
)

#: Brake when the time-to-collision falls below this threshold (seconds).
TTC_THRESHOLD_S = 2.0


def preprocess(frame: Frame, use_image: bool = False) -> LaneBox:
    """Preprocessing: compute the ego-lane bounding box for *frame*."""
    if use_image:
        return _preprocess_image(frame)
    half = frame.lane_width_m / 2
    return LaneBox(
        frame_seq=frame.seq,
        left_m=frame.lane_center_m - half,
        right_m=frame.lane_center_m + half,
    )


def _preprocess_image(frame: Frame) -> LaneBox:
    import numpy as np

    image = render_frame(frame)
    # Lane markings are the only medium-brightness full-height features:
    # score columns by the count of pixels in the marking band.
    marking = (image > 120) & (image < 250)
    scores = marking.sum(axis=0)
    columns = np.argsort(scores)[-2:]
    left_col, right_col = int(columns.min()), int(columns.max())

    def lateral(column: int) -> float:
        return (column / (IMAGE_WIDTH - 1)) * VIEW_WIDTH_M - VIEW_WIDTH_M / 2

    return LaneBox(frame.seq, lateral(left_col), lateral(right_col))


def detect_vehicles(
    frame: Frame, lane: LaneBox, use_image: bool = False
) -> VehicleList:
    """Computer Vision: find vehicles inside *lane* and range them.

    Note that *lane* may legitimately describe a different frame than
    *frame* when the middleware misaligned the inputs; the function uses
    it anyway (as the original demo code does), which is how mismatches
    become wrong detections.
    """
    if use_image:
        return _detect_image(frame, lane)
    detected = []
    for vehicle in frame.vehicles:
        if lane.left_m <= vehicle.lateral_m <= lane.right_m:
            closing = frame.ego_speed_mps - vehicle.speed_mps
            detected.append(
                DetectedVehicle(vehicle.vehicle_id, vehicle.distance_m, closing)
            )
    detected.sort(key=lambda vehicle: vehicle.distance_m)
    return VehicleList(frame_seq=frame.seq, vehicles=tuple(detected))


def _detect_image(frame: Frame, lane: LaneBox) -> VehicleList:
    import numpy as np

    image = render_frame(frame)
    blobs = image >= 250
    detected = []
    visited = np.zeros_like(blobs)
    for row in range(IMAGE_HEIGHT):
        for col in range(IMAGE_WIDTH):
            if not blobs[row, col] or visited[row, col]:
                continue
            rows, cols = _flood(blobs, visited, row, col)
            center_col = sum(cols) / len(cols)
            lateral = (center_col / (IMAGE_WIDTH - 1)) * VIEW_WIDTH_M - VIEW_WIDTH_M / 2
            if not (lane.left_m <= lateral <= lane.right_m):
                continue
            center_row = sum(rows) / len(rows)
            distance = (1.0 - center_row / (IMAGE_HEIGHT - 1)) * VIEW_DEPTH_M
            # Image ranging has no velocity; assume worst-case closing.
            detected.append(
                DetectedVehicle(len(detected) + 1, distance, frame.ego_speed_mps * 0.4)
            )
    detected.sort(key=lambda vehicle: vehicle.distance_m)
    return VehicleList(frame_seq=frame.seq, vehicles=tuple(detected))


def _flood(blobs, visited, row, col):
    stack = [(row, col)]
    rows, cols = [], []
    while stack:
        r, c = stack.pop()
        if not (0 <= r < IMAGE_HEIGHT and 0 <= c < IMAGE_WIDTH):
            continue
        if visited[r, c] or not blobs[r, c]:
            continue
        visited[r, c] = True
        rows.append(r)
        cols.append(c)
        stack.extend(((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)))
    return rows, cols


def decide_brake(vehicles: VehicleList) -> BrakeCommand:
    """EBA: decide whether an emergency brake maneuver is required."""
    worst_ttc = None
    for vehicle in vehicles.vehicles:
        if vehicle.closing_speed_mps <= 0:
            continue
        ttc = vehicle.distance_m / vehicle.closing_speed_mps
        if worst_ttc is None or ttc < worst_ttc:
            worst_ttc = ttc
    if worst_ttc is None or worst_ttc >= TTC_THRESHOLD_S:
        return BrakeCommand(vehicles.frame_seq, False, 0.0)
    intensity = min(1.0, max(0.0, 1.0 - worst_ttc / TTC_THRESHOLD_S))
    return BrakeCommand(vehicles.frame_seq, True, round(intensity, 6))


def oracle_commands(generator, n_frames: int) -> dict[int, BrakeCommand]:
    """Ground truth: the command every frame *should* produce.

    Runs the unmodified stage logic on every frame with perfectly
    aligned inputs — what an ideal middleware would deliver.
    """
    commands = {}
    for seq in range(n_frames):
        frame = generator.frame(seq)
        lane = preprocess(frame)
        vehicles = detect_vehicles(frame, lane)
        commands[seq] = decide_brake(vehicles)
    return commands
