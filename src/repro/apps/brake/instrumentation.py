"""Error counters and result records for brake-assistant runs.

The instrumentation mirrors what the paper added to the demonstrator:
counters for dropped inputs at each stage and input mismatches at
Computer Vision, reported as *prevalence* — errors per processed frame
(Figure 5) — plus an oracle comparison quantifying the safety impact
(missed and phantom brake activations).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.apps.brake.data import BrakeCommand
from repro.obs import context as obs_context
from repro.obs.flows import (
    CAUSE_BUFFER_OVERWRITE,
    LAYER_APP,
    attribute_drop,
    flow_id_of,
)

#: Figure 5's error categories, in its legend order.
ERROR_TYPES = (
    "dropped_preprocessing",
    "dropped_computer_vision",
    "mismatch_computer_vision",
    "dropped_eba",
)


@dataclass
class ErrorCounters:
    """Counts of the four error types of Figure 5."""

    dropped_preprocessing: int = 0
    dropped_computer_vision: int = 0
    mismatch_computer_vision: int = 0
    dropped_eba: int = 0
    #: Drops at the Video Adapter's camera buffer (before the pipeline;
    #: not part of Figure 5's categories but reported for completeness).
    dropped_adapter: int = 0

    def total(self) -> int:
        """Total Figure 5 errors (adapter drops excluded, as in the paper)."""
        return (
            self.dropped_preprocessing
            + self.dropped_computer_vision
            + self.mismatch_computer_vision
            + self.dropped_eba
        )

    def as_dict(self) -> dict[str, int]:
        """The four Figure 5 counters by name."""
        return {name: getattr(self, name) for name in ERROR_TYPES}


@dataclass
class BrakeRunResult:
    """Everything measured in one brake-assistant run."""

    seed: int
    n_frames: int
    errors: ErrorCounters
    #: frame seq -> command actually produced by EBA.
    commands: dict[int, BrakeCommand]
    #: Per-environment logical trace fingerprints (DEAR variant only).
    trace_fingerprints: dict[str, str] = field(default_factory=dict)
    #: frame seq -> end-to-end latency (capture to brake command), ns.
    latencies_ns: dict[int, int] = field(default_factory=dict)
    #: DEAR observable assumption violations (deadline misses, STP).
    deadline_misses: int = 0
    stp_violations: int = 0
    #: Fired-fault digest when a fault plan was installed (counters,
    #: fired count, fault-trace fingerprint); ``None`` otherwise.
    fault_summary: dict | None = None

    @property
    def prevalence(self) -> float:
        """Total error prevalence (fraction of frames, as in Figure 5)."""
        return self.errors.total() / self.n_frames

    def outcome_digest(self) -> str:
        """SHA-256 over the run's observable outcome.

        Covers the produced brake commands, per-frame latencies, error
        counters and timing-violation counts — everything downstream of
        the schedule — so any change to event ordering, RNG draw
        sequence or physical timing shifts the digest.  Unlike
        :attr:`trace_fingerprints` this works for the nondeterministic
        (non-DEAR) variant too; the kernel-fingerprint regression tests
        use it to pin schedules across kernel optimisations.
        """
        payload = {
            "commands": {
                str(seq): [cmd.frame_seq, cmd.brake, repr(cmd.intensity)]
                for seq, cmd in sorted(self.commands.items())
            },
            "latencies_ns": {
                str(seq): lat for seq, lat in sorted(self.latencies_ns.items())
            },
            "errors": self.errors.as_dict(),
            "deadline_misses": self.deadline_misses,
            "stp_violations": self.stp_violations,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def compare_with_oracle(
        self, oracle: dict[int, BrakeCommand]
    ) -> "OracleComparison":
        """Quantify the safety impact of middleware errors."""
        missed = phantom = wrong_intensity = absent = 0
        for seq, expected in oracle.items():
            actual = self.commands.get(seq)
            if actual is None:
                absent += 1
                if expected.brake:
                    missed += 1
                continue
            if expected.brake and not actual.brake:
                missed += 1
            elif actual.brake and not expected.brake:
                phantom += 1
            elif expected.brake and abs(actual.intensity - expected.intensity) > 1e-9:
                wrong_intensity += 1
        return OracleComparison(
            frames=len(oracle),
            missed_brakes=missed,
            phantom_brakes=phantom,
            wrong_intensity=wrong_intensity,
            absent_outputs=absent,
        )


@dataclass(frozen=True)
class OracleComparison:
    """Deviation of a run's brake commands from the ideal pipeline."""

    frames: int
    #: Frames where braking was required but not commanded.
    missed_brakes: int
    #: Frames where braking was commanded without need.
    phantom_brakes: int
    #: Correct decision, wrong intensity (stale data).
    wrong_intensity: int
    #: Frames for which EBA produced no output at all.
    absent_outputs: int

    @property
    def is_perfect(self) -> bool:
        """Whether the run matched the oracle exactly."""
        return (
            self.missed_brakes == 0
            and self.phantom_brakes == 0
            and self.wrong_intensity == 0
            and self.absent_outputs == 0
        )


class OneSlotBuffer:
    """The demonstrator's one-slot input buffer.

    The event handler *overwrites* the slot; if the previous item was
    never read by the periodic logic, it is lost — that is the paper's
    frame-dropping mechanism.  Reads empty the slot.

    With *sim* attached, writes participate in causal flow tracing:
    items self-correlate by their frame sequence (``seq``/``frame_seq``),
    overwritten unread items are attributed ``(app, buffer-overwrite)``.
    """

    def __init__(self, name: str, sim=None) -> None:
        self.name = name
        self._item = None
        self._unread = False
        self._sim = sim
        self.drops = 0
        self.writes = 0
        self.reads = 0

    def _now(self) -> int:
        return self._sim.now if self._sim is not None else 0

    def write(self, item) -> None:
        """Store *item*, dropping any unread previous item."""
        o = obs_context.ACTIVE
        if self._unread:
            self.drops += 1
            if o.enabled:
                attribute_drop(
                    o,
                    LAYER_APP,
                    CAUSE_BUFFER_OVERWRITE,
                    self._now(),
                    flow_id=flow_id_of(self._item),
                )
        if o.enabled and o.flows is not None:
            flow = flow_id_of(item)
            if flow is not None and o.flows.known(flow):
                o.flows.hop(flow, LAYER_APP, f"{self.name} write", self._now())
        self._item = item
        self._unread = True
        self.writes += 1

    def read(self):
        """Take the current item (``None`` if empty)."""
        if not self._unread:
            return None
        self._unread = False
        self.reads += 1
        return self._item

    def __repr__(self) -> str:
        return f"OneSlotBuffer({self.name!r}, drops={self.drops})"
