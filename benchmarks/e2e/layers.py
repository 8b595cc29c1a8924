"""Layer-boundary tracing and exact per-layer counts for the e2e benchmark.

Two instruments, both living entirely on the benchmark side (nothing in
``src/`` is edited or configured):

* :class:`LayerTracer` installs ``sys.setprofile`` and opens a span
  whenever control enters a function whose module maps to a different
  layer than its caller's; the span closes on the matching ``return``
  (which also fires on ``yield``, so a generator resumed by the thread
  scheduler opens a fresh span in its own layer).  Spans live in memory
  as flat records, carry the run id ``(app, variant, seed)`` and their
  parent span, and are reduced to per-layer self time and entry counts
  after the pass.  The same hook counts raw RNG draws from its
  ``c_call`` events on :class:`random.Random`.
* :class:`CountCapture` wraps ``World.__init__`` and ``Trace.__init__``
  so that a plain (untraced) run hands back every world and logical
  trace it built; event, network and trace counts are read off them.
"""

from __future__ import annotations

import random
import sys
import time
from array import array
from pathlib import Path

#: Layers in report order.  Every module under ``src/repro`` maps to one
#: of them (see :func:`layer_of_module`).
LAYERS = (
    "kernel",
    "sched",
    "rng",
    "network",
    "someip",
    "ara",
    "dear",
    "reactors",
    "trace",
    "time",
    "obs",
    "faults",
    "harness",
    "app",
)

#: Single files whose layer differs from their package's.
_FILE_LAYERS = {
    "sim/core.py": "kernel",
    "sim/rng.py": "rng",
    "reactors/telemetry.py": "trace",
}

#: Package -> layer.  Packages named like their layer are implied.
_PACKAGE_LAYERS = {
    "sim": "sched",
    "apps": "app",
    # Reports over observations are observation code.
    "analysis": "obs",
    # The LET baseline is the alternative deterministic-execution layer.
    "let": "dear",
    # Campaign machinery around single runs.
    "explore": "harness",
    "service": "harness",
    "snapshot": "harness",
}

#: Top-level modules of the package (``repro/cli.py`` and friends).
_TOP_LEVEL_LAYER = "harness"

#: ``random.Random`` primitives every higher-level draw reduces to.
_DRAW_METHODS = frozenset({"random", "getrandbits"})


def repro_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def layer_of_module(relative: str) -> str | None:
    """Layer of a module given its path relative to the ``repro`` package.

    Returns ``None`` for a path no rule covers.
    """
    if relative in _FILE_LAYERS:
        return _FILE_LAYERS[relative]
    package, sep, _ = relative.partition("/")
    if not sep:
        return _TOP_LEVEL_LAYER
    layer = _PACKAGE_LAYERS.get(package, package)
    return layer if layer in LAYERS else None


def unmapped_modules() -> list[str]:
    """Modules under ``src/repro`` that map to no layer (should be none)."""
    root = repro_root()
    return sorted(
        relative
        for relative in (p.relative_to(root).as_posix() for p in root.rglob("*.py"))
        if layer_of_module(relative) is None
    )


class LayerTracer:
    """``sys.setprofile`` hook that records layer-boundary spans.

    Span *i* is column *i* of :attr:`layer`, :attr:`start`, :attr:`end`
    (host ns), :attr:`parent` (-1 for the root span of a run) and
    :attr:`run` (index into :attr:`runs`); flat arrays keep a
    million spans in a few tens of megabytes.
    """

    def __init__(self) -> None:
        root = repro_root()
        self._repro_prefix = str(root) + "/"
        self._random_file = str(Path(random.__file__).resolve())
        self._layer_index = {name: i for i, name in enumerate(LAYERS)}
        #: code object -> layer index, or -1 for "inherit the caller's".
        self._code_layers: dict = {}
        self._rng_types: dict[type, bool] = {}
        self.layer = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.run = array("l")
        self.runs: list[str] = []
        self.draws = 0

    def __len__(self) -> int:
        return len(self.layer)

    def _code_layer(self, code) -> int:
        filename = code.co_filename
        if filename.startswith(self._repro_prefix):
            layer = layer_of_module(filename[len(self._repro_prefix) :])
            index = self._layer_index[layer] if layer else -1
        elif filename == self._random_file:
            index = self._layer_index["rng"]
        else:
            index = -1
        self._code_layers[code] = index
        return index

    def trace(self, run_id: str, root_layer: str, fn):
        """Call ``fn()`` under the hook; returns ``(result, wall_s)``.

        *root_layer* is the layer of the benchmark code that calls into
        the program; everything ``fn`` does nests under that root span.
        """
        run = len(self.runs)
        self.runs.append(run_id)
        layers, starts, ends, parents, runs = (
            self.layer,
            self.start,
            self.end,
            self.parent,
            self.run,
        )
        code_layers = self._code_layers
        code_layer = self._code_layer
        rng = self._layer_index["rng"]
        rng_types = self._rng_types
        draw_methods = _DRAW_METHODS
        clock = time.perf_counter_ns
        # One entry per open Python frame: the span it opened, or -1.
        frames: list[int] = []
        # Innermost open span, its layer, and an open C-level draw span.
        state = [-1, self._layer_index[root_layer], -1]

        def open_span(layer: int) -> int:
            index = len(layers)
            layers.append(layer)
            starts.append(clock())
            ends.append(0)
            parents.append(state[0])
            runs.append(run)
            state[0] = index
            state[1] = layer
            return index

        def close_span(index: int) -> None:
            ends[index] = clock()
            parent = parents[index]
            state[0] = parent
            if parent >= 0:
                state[1] = layers[parent]

        def hook(frame, event, arg):
            if event == "call":
                layer = code_layers.get(frame.f_code)
                if layer is None:
                    layer = code_layer(frame.f_code)
                if layer < 0 or layer == state[1]:
                    frames.append(-1)
                else:
                    frames.append(open_span(layer))
            elif event == "return":
                if frames:
                    index = frames.pop()
                    if index >= 0:
                        close_span(index)
            elif event == "c_call":
                owner = type(getattr(arg, "__self__", None))
                is_rng = rng_types.get(owner)
                if is_rng is None:
                    is_rng = rng_types[owner] = issubclass(owner, random.Random)
                if is_rng and arg.__name__ in draw_methods:
                    self.draws += 1
                    if state[1] != rng:
                        state[2] = open_span(rng)
            elif state[2] >= 0:  # c_return / c_exception of a draw
                close_span(state[2])
                state[2] = -1

        root = open_span(state[1])
        started = time.perf_counter()
        sys.setprofile(hook)
        try:
            result = fn()
        finally:
            sys.setprofile(None)
            wall = time.perf_counter() - started
            close_span(root)
        return result, wall

    def layer_totals(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per-layer ``(self_ns, entries)``; self time excludes child spans."""
        self_ns = [0] * len(LAYERS)
        entries = [0] * len(LAYERS)
        layers = self.layer
        for layer, start, end, parent in zip(layers, self.start, self.end, self.parent):
            duration = end - start
            self_ns[layer] += duration
            entries[layer] += 1
            if parent >= 0:
                self_ns[layers[parent]] -= duration
        return dict(zip(LAYERS, self_ns)), dict(zip(LAYERS, entries))

    def trace_events(self, limit: int) -> tuple[list[dict], int]:
        """Chrome/Perfetto ``trace_event`` records for the first *limit* spans.

        One lane (tid) per run, named by its run id; timestamps are host
        microseconds since the first span.  Returns ``(events, dropped)``.
        """
        if not len(self):
            return [], 0
        origin = self.start[0]
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "repro host time by layer"},
            }
        ]
        for tid, run_id in enumerate(self.runs):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": run_id},
                }
            )
        kept = min(limit, len(self))
        for index in range(kept):
            start = self.start[index]
            events.append(
                {
                    "name": LAYERS[self.layer[index]],
                    "cat": "layer",
                    "ph": "X",
                    "ts": (start - origin) / 1000,
                    "dur": (self.end[index] - start) / 1000,
                    "pid": 1,
                    "tid": self.run[index],
                    "args": {"span": index, "parent": self.parent[index]},
                }
            )
        return events, len(self) - kept


class CountCapture:
    """Collect every ``World`` and logical ``Trace`` built inside the block."""

    def __init__(self) -> None:
        self.worlds: list = []
        self.traces: list = []

    def __enter__(self) -> "CountCapture":
        from repro.reactors.telemetry import Trace
        from repro.sim.world import World

        self._patched = []
        for cls, sink in ((World, self.worlds), (Trace, self.traces)):
            original = cls.__init__

            def init(obj, *args, _original=original, _sink=sink, **kwargs):
                _original(obj, *args, **kwargs)
                _sink.append(obj)

            cls.__init__ = init
            self._patched.append((cls, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for cls, original in self._patched:
            cls.__init__ = original

    def counts(self) -> dict[str, int]:
        """Exact totals over the captured worlds and traces."""
        networks = [w.network for w in self.worlds if w.network is not None]
        return {
            "kernel.events": sum(w.sim.events_processed for w in self.worlds),
            "network.frames": sum(n.frames_sent for n in networks),
            "network.bytes": sum(n.total_bytes for n in networks),
            "trace.records": sum(len(t.records) for t in self.traces),
            # Trace.record calls repr() exactly for the non-empty values.
            "trace.repr_calls": sum(
                1 for t in self.traces for r in t.records if r.value != ""
            ),
        }
