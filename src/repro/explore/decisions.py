"""Scheduler decision traces: record, replay, intervene.

Three stream-hook controllers (installed via
:func:`repro.sim.rng.stream_hooks` for the duration of one experiment
run) cover the whole record/replay/perturb lifecycle:

* :class:`ScheduleRecorder` — wraps every ``*/scheduler`` stream and
  records each decision the :class:`~repro.sim.scheduler.CpuScheduler`
  draws, in one globally ordered :class:`DecisionTrace` (the simulator
  is single-threaded, so the order is deterministic);
* :class:`ScheduleReplayer` — answers every decision from a recorded
  trace instead of the RNG; with the same program and base seed the run
  is bit-exact, and any divergence raises :class:`ReplayDivergence`
  rather than silently desynchronizing;
* :class:`InterventionSchedule` — the seeded baseline plus a sparse set
  of :class:`PreemptionPoint` overrides ("delay the k-th dispatch by
  δ ns").  This is the representation the PCT-style explorer searches
  and the delta-debugging shrinker minimizes: every subset of
  preemption points is itself a valid, runnable schedule.

Hooks compose: installing an intervention hook *and* a recorder hook
records the effective (perturbed) decisions, which is how a found
failure is exported as a portable replay artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable

from repro.errors import SimulationError
from repro.sim.rng import RandomDecisionSource


def is_scheduler_stream(path: str) -> bool:
    """Whether a full stream path is a platform scheduler stream."""
    return path == "scheduler" or path.endswith("/scheduler")


class ReplayDivergence(SimulationError):
    """A replayed run diverged from its recorded decision trace."""


# ---------------------------------------------------------------------------
# Decision traces (full record of one run).
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DecisionRecord:
    """One scheduler decision.

    ``kind`` is one of ``dispatch`` / ``mutex`` / ``notify`` (picks,
    where ``bound`` is the candidate count and ``choice`` the chosen
    index), ``timer`` / ``dispatch-jitter`` (delays in ``[0, bound]``)
    or ``preempt`` (extra dispatch delay, normally 0).  ``name`` is the
    simulated thread the decision applied to.
    """

    index: int
    stream: str
    kind: str
    name: str
    bound: int
    choice: int

    def describe(self) -> str:
        """Human-readable one-liner (used by shrink/replay reports)."""
        platform = self.stream.rsplit("/", 1)[0]
        if self.kind in ("dispatch", "mutex", "notify"):
            return (
                f"#{self.index} {platform}: {self.kind} -> {self.name} "
                f"({self.choice + 1} of {self.bound})"
            )
        return (
            f"#{self.index} {platform}: {self.kind} {self.name} "
            f"+{self.choice / 1e6:.3f} ms"
        )


@dataclass
class DecisionTrace:
    """All scheduler decisions of one run, in global order."""

    base_seed: int
    records: list[DecisionRecord] = field(default_factory=list)
    experiment: str = ""
    params: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def fingerprint(self) -> str:
        """Stable hash of the decision sequence."""
        import hashlib

        digest = hashlib.sha256()
        for record in self.records:
            digest.update(
                f"{record.stream}|{record.kind}|{record.name}"
                f"|{record.bound}|{record.choice}\n".encode()
            )
        return digest.hexdigest()

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """Compact JSON form (string tables for streams/kinds/names)."""
        streams: dict[str, int] = {}
        kinds: dict[str, int] = {}
        names: dict[str, int] = {}

        def intern(table: dict[str, int], value: str) -> int:
            return table.setdefault(value, len(table))

        rows = [
            [
                intern(streams, record.stream),
                intern(kinds, record.kind),
                intern(names, record.name),
                record.bound,
                record.choice,
            ]
            for record in self.records
        ]
        return {
            "format": "decision-trace/v1",
            "base_seed": self.base_seed,
            "experiment": self.experiment,
            "params": self.params,
            "streams": list(streams),
            "kinds": list(kinds),
            "names": list(names),
            "records": rows,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTrace":
        if data.get("format") != "decision-trace/v1":
            raise ValueError(f"not a decision trace: {data.get('format')!r}")
        streams = data["streams"]
        kinds = data["kinds"]
        names = data["names"]
        records = [
            DecisionRecord(
                index, streams[s], kinds[k], names[n], bound, choice
            )
            for index, (s, k, n, bound, choice) in enumerate(data["records"])
        ]
        return cls(
            base_seed=data["base_seed"],
            records=records,
            experiment=data.get("experiment", ""),
            params=dict(data.get("params", {})),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "DecisionTrace":
        return cls.from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Recording.
# ---------------------------------------------------------------------------


class ScheduleRecorder:
    """Stream hook recording every scheduler decision of one run.

    Use as ``with stream_hooks(recorder): run_experiment()`` and read
    :attr:`trace` afterwards.  Composes with other decision sources: if
    the stream was already wrapped (replay or intervention hook
    installed first), the *effective* decisions are recorded.
    """

    def __init__(self, base_seed: int = 0) -> None:
        self.trace = DecisionTrace(base_seed=base_seed)

    def __call__(self, path: str, rng: Any):
        if not is_scheduler_stream(path):
            return None
        inner = rng if hasattr(rng, "pick_index") else RandomDecisionSource(rng)
        return _RecordingSource(self, path, inner)

    def _add(self, stream: str, kind: str, name: str, bound: int, choice: int) -> int:
        records = self.trace.records
        records.append(
            DecisionRecord(len(records), stream, kind, name, bound, choice)
        )
        return choice


class _RecordingSource:
    __slots__ = ("_recorder", "_path", "_inner")

    def __init__(self, recorder: ScheduleRecorder, path: str, inner) -> None:
        self._recorder = recorder
        self._path = path
        self._inner = inner

    def pick_index(self, kind: str, candidates: list) -> int:
        choice = self._inner.pick_index(kind, candidates)
        self._recorder._add(
            self._path, kind, candidates[choice].name, len(candidates), choice
        )
        return choice

    def jitter(self, kind: str, name: str, bound_ns: int) -> int:
        kind_label = "timer" if kind == "timer" else "dispatch-jitter"
        choice = self._inner.jitter(kind, name, bound_ns)
        self._recorder._add(self._path, kind_label, name, bound_ns, choice)
        return choice

    def preempt(self, name: str) -> int:
        choice = self._inner.preempt(name)
        self._recorder._add(self._path, "preempt", name, 0, choice)
        return choice


# ---------------------------------------------------------------------------
# Replay.
# ---------------------------------------------------------------------------


class ScheduleReplayer:
    """Stream hook answering scheduler decisions from a recorded trace.

    The RNG behind each scheduler stream is never consulted; with the
    same program and base seed the replayed run is bit-exact.  In
    ``strict`` mode (the default) any mismatch between the running
    program and the trace — wrong platform, wrong decision kind, a
    candidate set the recorded choice no longer fits — raises
    :class:`ReplayDivergence` identifying the offending decision.
    """

    def __init__(self, trace: DecisionTrace, strict: bool = True) -> None:
        self.trace = trace
        self.strict = strict
        self._cursor = 0

    def __call__(self, path: str, rng: Any):
        if not is_scheduler_stream(path):
            return None
        fallback = rng if hasattr(rng, "pick_index") else RandomDecisionSource(rng)
        return _ReplaySource(self, path, fallback)

    @property
    def consumed(self) -> int:
        """How many recorded decisions have been replayed."""
        return self._cursor

    def _next(self, path: str, kind: str) -> DecisionRecord | None:
        if self._cursor >= len(self.trace.records):
            if self.strict:
                raise ReplayDivergence(
                    f"decision trace exhausted after {self._cursor} decisions "
                    f"(next request: {kind} on {path})"
                )
            return None
        record = self.trace.records[self._cursor]
        if record.stream != path or record.kind != kind:
            if self.strict:
                raise ReplayDivergence(
                    f"replay diverged at decision {record.index}: recorded "
                    f"{record.kind!r} on {record.stream!r}, program asked for "
                    f"{kind!r} on {path!r}"
                )
            return None
        self._cursor += 1
        return record


class _ReplaySource:
    __slots__ = ("_replayer", "_path", "_fallback")

    def __init__(self, replayer: ScheduleReplayer, path: str, fallback) -> None:
        self._replayer = replayer
        self._path = path
        self._fallback = fallback

    def pick_index(self, kind: str, candidates: list) -> int:
        record = self._replayer._next(self._path, kind)
        if record is None:
            return self._fallback.pick_index(kind, candidates)
        if record.choice >= len(candidates):
            raise ReplayDivergence(
                f"replay diverged at decision {record.index}: recorded pick "
                f"{record.choice} of {record.bound}, but only "
                f"{len(candidates)} candidates exist now"
            )
        return record.choice

    def jitter(self, kind: str, name: str, bound_ns: int) -> int:
        label = "timer" if kind == "timer" else "dispatch-jitter"
        record = self._replayer._next(self._path, label)
        if record is None:
            return self._fallback.jitter(kind, name, bound_ns)
        return record.choice

    def preempt(self, name: str) -> int:
        record = self._replayer._next(self._path, "preempt")
        if record is None:
            return self._fallback.preempt(name)
        return record.choice


# ---------------------------------------------------------------------------
# Interventions (sparse preemption overrides on the seeded baseline).
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class PreemptionPoint:
    """Delay the ``site``-th dispatch of the run by ``delay_ns``.

    Sites count the scheduler's preemption queries (one per dispatch)
    globally across all platforms, so a point pins one specific
    "the OS preempts this thread right here" event.  ``thread`` is
    filled in after a run for reporting; it does not affect matching.
    """

    site: int
    delay_ns: int
    thread: str = field(default="", compare=False)

    def describe(self) -> str:
        target = self.thread or "?"
        return f"dispatch #{self.site} of {target}: +{self.delay_ns / 1e6:.1f} ms"


@dataclass(frozen=True)
class InterventionSchedule:
    """A seeded baseline schedule plus sparse preemption points.

    With no points this is exactly the stock seeded run for
    ``base_seed``.  Points only *add* dispatch delay, so any subset is
    a valid schedule — the property delta-debugging relies on.
    """

    base_seed: int
    preemptions: tuple[PreemptionPoint, ...] = ()
    label: str = ""

    def controller(
        self, exclude: tuple[str, ...] = (), checkpointer: Any = None
    ) -> "InterventionController":
        """A fresh stream-hook controller applying this schedule.

        *exclude* suppresses preemptions whose target thread name
        contains any of the given substrings (the site is still
        counted, keeping ordinals aligned with unfiltered runs).
        *checkpointer* (a :class:`repro.snapshot.Checkpointer`) lets the
        snapshot engine capture copy-on-write holders at planned sites.
        """
        return InterventionController(
            self, exclude=exclude, checkpointer=checkpointer
        )

    def with_points(
        self, points: Iterable[PreemptionPoint], label: str | None = None
    ) -> "InterventionSchedule":
        """A copy with a different preemption set."""
        return replace(
            self,
            preemptions=tuple(sorted(points)),
            label=self.label if label is None else label,
        )

    def describe(self) -> str:
        if not self.preemptions:
            return f"seed {self.base_seed}, no preemptions"
        points = "; ".join(point.describe() for point in self.preemptions)
        return f"seed {self.base_seed}, {len(self.preemptions)} preemption(s): {points}"

    def to_dict(self) -> dict:
        return {
            "format": "intervention-schedule/v1",
            "base_seed": self.base_seed,
            "label": self.label,
            "preemptions": [
                {"site": p.site, "delay_ns": p.delay_ns, "thread": p.thread}
                for p in self.preemptions
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InterventionSchedule":
        if data.get("format") != "intervention-schedule/v1":
            raise ValueError(f"not a schedule: {data.get('format')!r}")
        return cls(
            base_seed=data["base_seed"],
            label=data.get("label", ""),
            preemptions=tuple(
                PreemptionPoint(p["site"], p["delay_ns"], p.get("thread", ""))
                for p in data["preemptions"]
            ),
        )


class InterventionController:
    """Stream hook applying an :class:`InterventionSchedule`.

    Non-intervened decisions delegate to the stream's seeded RNG, so an
    empty schedule reproduces the baseline run bit-exactly.  After the
    run, :attr:`applied` holds the points that actually fired, with the
    affected thread names resolved.

    *exclude* names thread-name substrings whose preemptions are
    suppressed (applied as a zero delay).  The determinism verifier
    uses this to keep environment/sensor threads unperturbed: delaying
    a sensor driver shifts *when* its physical action is scheduled —
    an input-timeline change, not scheduler nondeterminism — so it is
    out of scope for a "same inputs ⇒ same trace" comparison.
    Suppressed sites still advance the ordinal counter, so site
    numbering stays aligned with unfiltered runs of the same schedule.
    """

    def __init__(
        self,
        schedule: InterventionSchedule,
        exclude: tuple[str, ...] = (),
        checkpointer: Any = None,
    ) -> None:
        self.schedule = schedule
        self.exclude = tuple(exclude)
        self._delays = {point.site: point.delay_ns for point in schedule.preemptions}
        self._site = 0
        self._ckpt = checkpointer
        self.applied: list[PreemptionPoint] = []
        self.suppressed: list[PreemptionPoint] = []

    def __call__(self, path: str, rng: Any):
        if not is_scheduler_stream(path):
            return None
        inner = rng if hasattr(rng, "pick_index") else RandomDecisionSource(rng)
        return _InterventionSource(self, inner)

    def _adopt(self, delays: dict[int, int]) -> None:
        """Snapshot-fork seam: a forked continuation swaps in its own
        schedule's delay map before resuming (sites already consumed in
        the shared prefix are identical by construction)."""
        self._delays = dict(delays)

    def _preempt(self, name: str) -> int:
        site = self._site
        self._site += 1
        # Capture *before* consuming this site's decision: the holder's
        # state must depend only on decisions at sites < `site`, so the
        # fork-site delay itself comes from the adopted suffix.
        ckpt = self._ckpt
        if ckpt is not None and ckpt.wants(site):
            ckpt.reached(site, self._adopt)
        delay = self._delays.get(site, 0)
        if not delay:
            return 0
        if any(pattern in name for pattern in self.exclude):
            self.suppressed.append(PreemptionPoint(site, delay, thread=name))
            return 0
        self.applied.append(PreemptionPoint(site, delay, thread=name))
        return delay


class _InterventionSource:
    __slots__ = ("_controller", "_inner")

    def __init__(self, controller: InterventionController, inner) -> None:
        self._controller = controller
        self._inner = inner

    def pick_index(self, kind: str, candidates: list) -> int:
        return self._inner.pick_index(kind, candidates)

    def jitter(self, kind: str, name: str, bound_ns: int) -> int:
        return self._inner.jitter(kind, name, bound_ns)

    def preempt(self, name: str) -> int:
        return self._inner.preempt(name) + self._controller._preempt(name)
