"""Shared test fixtures and world-building helpers."""

from __future__ import annotations

from repro.ara import AraProcess, build_world
from repro.network import SwitchConfig
from repro.sim import World
from repro.sim.platform import CALM, PlatformConfig


def build_ap_world(
    seed: int = 0,
    hosts: tuple[str, ...] = ("p1", "p2"),
    platform_config: PlatformConfig | None = None,
    switch_config: SwitchConfig | None = None,
) -> World:
    """A world with networked platforms, each running an SD daemon."""
    config = platform_config or CALM
    return build_world(seed, [(host, config) for host in hosts], switch_config)


def make_process(world: World, host: str, name: str, **kwargs) -> AraProcess:
    """Create an AP application process on *host*."""
    return AraProcess(world.platform(host), name, **kwargs)
