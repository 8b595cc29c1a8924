"""Deterministic fault injection (``repro.faults``).

Seeded fault plans (frame drop/duplicate/reorder/corrupt, latency
spikes, link partitions, node crash/restart, clock step/drift) applied
at the network/scheduler/clock seams without perturbing any existing
RNG draw order; fired faults record as ``decision-trace/v1`` so fault
schedules replay bit-exactly (under :func:`replay`) and ddmin-shrink
through :mod:`repro.explore`.  See ``docs/API.md`` → "Fault injection".
"""

from repro.faults.injector import (
    FaultInjector,
    FaultVerdict,
    install_fault_plan,
    replay,
)
from repro.faults.plan import (
    ClockFault,
    FaultPlan,
    LinkFault,
    NodeOutage,
    Partition,
)
from repro.faults.shrink import FaultShrinkResult, shrink_fault_trace

__all__ = [
    "ClockFault",
    "FaultInjector",
    "FaultPlan",
    "FaultShrinkResult",
    "FaultVerdict",
    "LinkFault",
    "NodeOutage",
    "Partition",
    "install_fault_plan",
    "replay",
    "shrink_fault_trace",
]
