"""Deterministic fault injection (``repro.faults``).

Seeded fault plans (frame drop/duplicate/reorder/corrupt, latency
spikes, link partitions, node crash/restart, clock step/drift) applied
at the network/scheduler/clock seams without perturbing any existing
RNG draw order; fired faults record as ``decision-trace/v1`` so fault
schedules replay bit-exactly (under :func:`replay`) and ddmin-shrink
through :mod:`repro.explore`.  See ``docs/API.md`` → "Fault injection".
Every run loads the plan types; the injector (installed only for a
non-empty plan) and the shrinker load on first access
(:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports
from repro.faults.plan import (
    ClockFault,
    FaultPlan,
    LinkFault,
    NodeOutage,
    Partition,
)

#: The injector (installed only for a non-empty plan), the shrinker and
#: the fault sweep.
_EXPORTS = {
    "FaultInjector": "injector",
    "FaultVerdict": "injector",
    "install_fault_plan": "injector",
    "replay": "injector",
    "FaultShrinkResult": "shrink",
    "fault_sweep": "shrink",
    "shrink_fault_trace": "shrink",
}

__all__ = [
    "ClockFault",
    "FaultPlan",
    "LinkFault",
    "NodeOutage",
    "Partition",
    *_EXPORTS,
]

__getattr__ = lazy_exports(__name__, _EXPORTS)
