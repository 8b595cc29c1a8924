"""Latency distributions for links and switches.

Each model's :meth:`~LatencyModel.sample` draws one delay in nanoseconds
from the stream passed in, and :meth:`~LatencyModel.bound` reports an
upper bound (when one exists) — the ``L`` that the DEAR safe-to-process
rule needs.  Models whose tail is unbounded report a high quantile and
are intended for experiments that *violate* the bounded-latency
assumption on purpose.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from typing import Any, Protocol

from repro.sim.rng import randbelow


class LatencyModel(Protocol):
    """A distribution of one-way transport delays."""

    def sample(self, rng: random.Random) -> int:
        """Draw one delay in nanoseconds."""
        ...

    def bound(self) -> int:
        """An upper bound (or high quantile) on the delay, in nanoseconds."""
        ...


@dataclass(frozen=True, slots=True)
class ConstantLatency:
    """Always exactly *value_ns*."""

    value_ns: int

    def sample(self, rng: random.Random) -> int:
        return self.value_ns

    def bound(self) -> int:
        return self.value_ns


@dataclass(frozen=True, slots=True)
class UniformLatency:
    """Uniform between *low_ns* and *high_ns* inclusive."""

    low_ns: int
    high_ns: int

    def __post_init__(self) -> None:
        if not 0 <= self.low_ns <= self.high_ns:
            raise ValueError("need 0 <= low <= high")

    def sample(self, rng: random.Random) -> int:
        return self.low_ns + randbelow(rng, self.high_ns - self.low_ns + 1)

    def bound(self) -> int:
        return self.high_ns


@dataclass(frozen=True, slots=True)
class GammaLatency:
    """A base delay plus a gamma-distributed tail.

    Shaped like real LAN latency: a hard floor (propagation +
    store-and-forward) with a right-skewed queueing tail.  ``bound``
    reports ``base + tail_cut_ns`` and samples are truncated there, so the
    model is compatible with the paper's bounded-latency assumption while
    still having a realistic shape.
    """

    base_ns: int
    shape: float = 2.0
    scale_ns: int = 50_000
    tail_cut_sigma: float = 8.0

    def _tail_cut(self) -> int:
        mean = self.shape * self.scale_ns
        sigma = math.sqrt(self.shape) * self.scale_ns
        return int(mean + self.tail_cut_sigma * sigma)

    def sample(self, rng: random.Random) -> int:
        tail = int(rng.gammavariate(self.shape, self.scale_ns))
        return self.base_ns + min(tail, self._tail_cut())

    def bound(self) -> int:
        return self.base_ns + self._tail_cut()


@dataclass(frozen=True, slots=True)
class SpikyLatency:
    """A base model with occasional large spikes.

    Used to model transient congestion and to test what happens when the
    actual delay exceeds the ``L`` assumed by safe-to-process analysis:
    ``bound`` deliberately reports only the base model's bound.
    """

    base: LatencyModel
    spike_probability: float
    spike_ns: int

    def sample(self, rng: random.Random) -> int:
        delay = self.base.sample(rng)
        if rng.random() < self.spike_probability:
            delay += self.spike_ns
        return delay

    def bound(self) -> int:
        return self.base.bound()


_LATENCY_MODELS: dict[str, type] = {
    cls.__name__: cls
    for cls in (ConstantLatency, UniformLatency, GammaLatency, SpikyLatency)
}


def latency_model_to_dict(model: LatencyModel) -> dict:
    """JSON form of any of the built-in latency models."""
    name = type(model).__name__
    if name not in _LATENCY_MODELS:
        raise ValueError(
            f"cannot serialize latency model {name!r}; "
            f"known: {sorted(_LATENCY_MODELS)}"
        )
    out: dict[str, Any] = {"model": name}
    for f in fields(model):
        value = getattr(model, f.name)
        out[f.name] = (
            latency_model_to_dict(value) if f.name == "base" else value
        )
    return out


def latency_model_from_dict(data: dict) -> LatencyModel:
    """Inverse of :func:`latency_model_to_dict`."""
    kwargs = dict(data)
    name = kwargs.pop("model")
    cls = _LATENCY_MODELS.get(name)
    if cls is None:
        raise ValueError(f"unknown latency model {name!r}")
    if "base" in kwargs:
        kwargs["base"] = latency_model_from_dict(kwargs["base"])
    return cls(**kwargs)
