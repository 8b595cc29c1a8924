"""The active observation: a process-wide, opt-in recording context.

Observability is **off by default**: the module-level :data:`ACTIVE`
handle is a :class:`NullObservation` whose ``enabled`` flag is
``False``, and every instrumentation site in the runtime guards itself
with one attribute read::

    o = context.ACTIVE
    if o.enabled:
        o.bus.instant(...)

so a disabled run pays one global load and one attribute check per
potential event — nothing is allocated, sampled or stored.  Crucially,
recording draws **no randomness** and takes **no scheduling decision**:
enabling observability cannot perturb RNG streams or interleavings,
which is what keeps logical trace fingerprints byte-identical between
observed and unobserved runs (asserted by ``tests/test_obs.py``).

:func:`capture` installs a fresh :class:`Observation` for the duration
of a ``with`` block (re-entrant: the previous handle is restored on
exit).  Sweep workers run one seed per process, so a process-global
handle is safe; :func:`repro.harness.observe_run`, the one caller,
enters :func:`capture` *inside* the worker.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.bus import EventBus
from repro.obs.flows import FlowRegistry
from repro.obs.metrics import MetricsRegistry

__all__ = ["Observation", "NullObservation", "ACTIVE", "capture"]


class Observation:
    """One run's worth of recorded events and metrics."""

    __slots__ = ("enabled", "bus", "metrics", "scratch", "flows", "_wall_anchor_ns")

    def __init__(self, flows: bool = False) -> None:
        self.enabled = True
        self.bus = EventBus()
        self.metrics = MetricsRegistry()
        #: Instrumentation-private state (e.g. mutex acquire timestamps),
        #: keyed by the instrumenting site.  Lives here, not on the
        #: simulated objects, so the disabled path allocates nothing.
        self.scratch: dict[Any, int] = {}
        #: Causal flow tracing (:mod:`repro.obs.flows`), opt-in on top of
        #: plain observability; ``None`` keeps every flow site one check.
        self.flows: FlowRegistry | None = (
            FlowRegistry(self.metrics) if flows else None
        )
        self._wall_anchor_ns = time.perf_counter_ns()

    def wall_ns(self) -> int:
        """Wall-clock nanoseconds since this observation started."""
        return time.perf_counter_ns() - self._wall_anchor_ns


class NullObservation:
    """The disabled stand-in: only its ``enabled`` flag is ever read."""

    __slots__ = ()

    enabled = False
    bus = None
    metrics = None
    scratch = None
    flows = None

    def wall_ns(self) -> int:  # pragma: no cover - never called when disabled
        return 0


#: The process-wide observation handle read by every instrumented site.
ACTIVE: Observation | NullObservation = NullObservation()


@contextmanager
def capture(
    observation: Observation | None = None, *, flows: bool = False
) -> Iterator[Observation]:
    """Enable observability for the duration of a ``with`` block.

    Yields the (fresh or supplied) :class:`Observation`; the previously
    active handle — usually the disabled null object — is restored on
    exit, even on error.  ``flows=True`` additionally activates causal
    flow tracing (ignored when *observation* is supplied).
    """
    global ACTIVE
    observation = observation or Observation(flows=flows)
    previous = ACTIVE
    ACTIVE = observation
    try:
        yield observation
    finally:
        ACTIVE = previous
