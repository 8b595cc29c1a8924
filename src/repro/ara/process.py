"""Adaptive applications: one SWC = one process.

An :class:`AraProcess` bundles what every AP application process owns:
a SOME/IP endpoint (with optional DEAR tag awareness), access to the
platform's SD daemon, and the middleware worker pool.  It is the factory
for proxies and skeletons.

:func:`build_world` builds the networked world such processes run in:
one switch and one platform + NIC + SD daemon per host.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from repro.errors import AraError, ServiceNotAvailableError
from repro.ara.interface import ServiceInterface
from repro.ara.pool import DispatchPool
from repro.ara.proxy import ServiceProxy
from repro.ara.skeleton import MethodCallProcessingMode, ServiceSkeleton
from repro.network import NetworkInterface, Switch, SwitchConfig
from repro.sim.platform import Platform, PlatformConfig
from repro.sim.process import SimThread
from repro.sim.world import World
from repro.someip.runtime import SomeIpEndpoint
from repro.someip.sd import SdDaemon
from repro.time.duration import SEC


def build_world(
    seed: int,
    hosts: Iterable[tuple[str, PlatformConfig | None]],
    switch_config: SwitchConfig | None = None,
    fault_plan=None,
) -> World:
    """A networked world: one switch, one platform + NIC + SD daemon per host.

    The switch draws on the world's ``"net"`` RNG stream, so one seed
    gives one schedule whichever app builds the world.  A non-empty
    :class:`~repro.faults.FaultPlan` is installed before any traffic
    flows (under an active :func:`repro.faults.replay`, its decisions
    come from the replayed trace).
    """
    world = World(seed)
    switch = Switch(world.sim, world.rng.stream("net"), switch_config)
    world.attach_network(switch)
    for host, config in hosts:
        platform = world.add_platform(host, config)
        SdDaemon(platform, NetworkInterface(platform, switch))
    if fault_plan is not None and not fault_plan.is_empty:
        from repro.faults import install_fault_plan

        install_fault_plan(world, fault_plan)
    return world


class AraProcess:
    """One adaptive application process on a platform."""

    def __init__(
        self,
        platform: Platform,
        name: str,
        workers: int = 4,
        tag_aware: bool = False,
        tag_transport: str = "trailer",
    ) -> None:
        sd = platform.attachments.get("sd")
        if not isinstance(sd, SdDaemon):
            raise AraError(
                f"platform {platform.name!r} has no SD daemon; build its "
                f"world with repro.ara.build_world"
            )
        self.platform = platform
        self.name = name
        self.sd = sd
        self.endpoint = SomeIpEndpoint(
            platform, sd, name, tag_aware=tag_aware, tag_transport=tag_transport
        )
        self.pool = DispatchPool(platform, f"{name}.pool", workers)

    # -- client side -----------------------------------------------------------

    def find_service(
        self,
        interface: ServiceInterface,
        instance_id: int,
        timeout_ns: int = 2 * SEC,
    ) -> Generator[Any, Any, ServiceProxy]:
        """Thread context: resolve a service and build its proxy.

        Raises :class:`ServiceNotAvailableError` when discovery times
        out — the AP behaviour of a failed ``FindService``.
        """
        entry = yield from self.sd.find_blocking(
            interface.service_id, instance_id, timeout_ns
        )
        if entry is None:
            raise ServiceNotAvailableError(
                f"{interface.name!r} instance {instance_id} not found "
                f"within {timeout_ns} ns"
            )
        return ServiceProxy(self, interface, entry)

    # -- server side -------------------------------------------------------------

    def create_skeleton(
        self,
        interface: ServiceInterface,
        instance_id: int,
        processing_mode: MethodCallProcessingMode = MethodCallProcessingMode.EVENT,
        field_defaults: dict[str, Any] | None = None,
    ) -> ServiceSkeleton:
        """Create (but do not yet offer) a skeleton for *interface*."""
        return ServiceSkeleton(
            self, interface, instance_id, processing_mode, field_defaults
        )

    # -- threads ------------------------------------------------------------------

    def spawn(
        self, name: str, generator: Generator, start_delay_ns: int = 0
    ) -> SimThread:
        """Start an application thread belonging to this process."""
        return self.platform.spawn(f"{self.name}.{name}", generator, start_delay_ns)

    def __repr__(self) -> str:
        return f"AraProcess({self.name!r} on {self.platform.name!r})"
