"""Workload and timing configuration for the brake assistant."""

from __future__ import annotations

from dataclasses import dataclass

from repro._draws import randbelow
from repro.time.duration import MS, US


@dataclass(frozen=True)
class StageTiming:
    """Execution-time model of one SWC's logic (uniform range)."""

    min_ns: int
    max_ns: int

    def sample(self, rng) -> int:
        """Draw one execution time (the draw ``rng.randint`` would make)."""
        return self.min_ns + randbelow(rng, self.max_ns - self.min_ns + 1)


@dataclass(frozen=True)
class BrakeScenario:
    """Everything that parameterizes one brake-assistant run.

    Defaults follow Section IV: 50 ms frame period and SWC periods,
    deadlines 5/25/25/5 ms, 5 ms communication latency bound, no clock
    synchronization error (single processing platform).  The paper
    processes 100 000 frames per run; the default here is smaller so the
    full 20-run experiment stays interactive — pass ``n_frames=100_000``
    for paper scale.
    """

    n_frames: int = 2_000
    #: Nominal camera period and SWC callback period.
    period_ns: int = 50 * MS
    #: Camera jitter: each frame is sent at k*period + U(0, jitter).
    camera_jitter_ns: int = 2 * MS
    #: Warm-up before the camera starts (service discovery, subscriptions).
    warmup_ns: int = 600 * MS
    #: Scenario variant passed to the scene generator.
    variant: int = 0
    #: Synthetic extra bytes per frame message (models the pixel payload).
    frame_extra_bytes: int = 4096
    #: Per-stage execution-time models (within the paper's WCET budget).
    adapter: StageTiming = StageTiming(1 * MS, 3 * MS)
    preprocessing: StageTiming = StageTiming(14 * MS, 21 * MS)
    computer_vision: StageTiming = StageTiming(14 * MS, 21 * MS)
    eba: StageTiming = StageTiming(1 * MS, 3 * MS)
    #: Occasional late periodic callbacks (OS scheduling spikes): each
    #: activation is delayed by U(0, max) with this probability.
    callback_spike_probability: float = 0.02
    callback_spike_max_ns: int = 8 * MS
    #: Middleware handler cost of copying a frame event into the input
    #: buffer (frames carry pixel payloads; lanes/vehicle lists are tiny).
    frame_copy_cost: StageTiming = StageTiming(300 * US, 2 * MS)
    #: DEAR deadlines (Section IV.B).
    adapter_deadline_ns: int = 5 * MS
    preprocessing_deadline_ns: int = 25 * MS
    computer_vision_deadline_ns: int = 25 * MS
    eba_deadline_ns: int = 5 * MS
    #: Assumed worst-case communication latency L.
    latency_bound_ns: int = 5 * MS
    #: Assumed clock synchronization error E.
    clock_error_ns: int = 0
    #: DEAR late-message policy when STP detects an L-bound violation
    #: (a :class:`repro.dear.LatePolicy` value; kept as a string so the
    #: scenario stays trivially JSON-serializable).
    late_policy: str = "process"
    #: Deterministic camera: no send jitter and a constant network
    #: latency, so even event *tags* are reproducible across seeds.
    deterministic_camera: bool = False
    #: Distributed deployment (extension): Computer Vision and EBA run
    #: on a second processing ECU whose clock is offset by
    #: ``processing_clock_skew_ns`` — the case where the paper's ``E``
    #: term becomes non-zero.  Set ``clock_error_ns`` >= the skew.
    distributed: bool = False
    processing_clock_skew_ns: int = 0
    #: Use the image-based detection path (slower, more realistic).
    use_image_pipeline: bool = False

    def total_duration_ns(self) -> int:
        """Simulation horizon comfortably covering the whole run."""
        return self.warmup_ns + (self.n_frames + 12) * self.period_ns
