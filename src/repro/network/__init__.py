"""Simulated network substrate.

Models the paper's evaluation network (two boards on an Ethernet switch)
and, more importantly, the **third source of nondeterminism**: message
transport with unpredictable delay and — unless a flow is configured
in-order — possible reordering.

Layers:

* :mod:`repro.network.latency` — pluggable delay distributions;
* :mod:`repro.network.topology` — multi-switch fabrics with per-link
  latency/bandwidth and deterministic routing;
* :mod:`repro.network.switch` — a store-and-forward switch routing frames
  between hosts (plus a loopback path for same-host traffic);
* :mod:`repro.network.stack` — per-platform network interfaces and
  datagram sockets that deliver into simulated-thread message queues.
"""

from repro.network.latency import (
    ConstantLatency,
    GammaLatency,
    LatencyModel,
    SpikyLatency,
    UniformLatency,
    latency_model_from_dict,
    latency_model_to_dict,
)
from repro.network.switch import CALM_LAN, CorruptedPayload, Frame, Switch, SwitchConfig
from repro.network.stack import NetworkInterface, Socket
from repro.network.topology import Link, Route, TopologySpec

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "GammaLatency",
    "SpikyLatency",
    "latency_model_to_dict",
    "latency_model_from_dict",
    "CorruptedPayload",
    "Frame",
    "Switch",
    "SwitchConfig",
    "CALM_LAN",
    "Link",
    "Route",
    "TopologySpec",
    "NetworkInterface",
    "Socket",
]
