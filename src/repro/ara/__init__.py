"""The ARA layer: AUTOSAR Runtime for Adaptive Applications.

This is the programming API that application SWCs use, mirroring the
``ara::com`` design the paper describes (Section II.A):

* :mod:`repro.ara.interface` — design-time service interface
  descriptions composed of methods, events and fields;
* :mod:`repro.ara.future` — ``ara::core::Future``/``Promise`` on top of
  simulated threads;
* :mod:`repro.ara.pool` — the middleware worker-thread pool that, by
  default, "maps each invocation to a different thread";
* :mod:`repro.ara.proxy` / :mod:`repro.ara.skeleton` — the generated
  communication endpoints of Figure 2, including the three method-call
  processing modes of the communication-management spec;
* :mod:`repro.ara.process` — an adaptive application (one SWC = one
  process) bundling endpoint, SD access and worker pool, and
  :func:`build_world`, the networked world such processes run in;
* :mod:`repro.ara.execution` — a minimal execution manager;
* :mod:`repro.ara.detclient` — the AP "deterministic client", which the
  paper notes addresses only the first source of nondeterminism.
"""

from repro.ara.interface import Event, Field, Method, ServiceInterface
from repro.ara.future import Future, FutureState, Promise
from repro.ara.pool import DispatchPool
from repro.ara.proxy import ServiceProxy
from repro.ara.skeleton import MethodCallProcessingMode, ServiceSkeleton
from repro.ara.process import AraProcess, build_world
from repro.ara.execution import ExecutionManager, ProcessState
from repro.ara.detclient import ActivationReturnType, DeterministicClient

__all__ = [
    "ServiceInterface",
    "Method",
    "Event",
    "Field",
    "Future",
    "Promise",
    "FutureState",
    "DispatchPool",
    "ServiceProxy",
    "ServiceSkeleton",
    "MethodCallProcessingMode",
    "AraProcess",
    "build_world",
    "ExecutionManager",
    "ProcessState",
    "DeterministicClient",
    "ActivationReturnType",
]
