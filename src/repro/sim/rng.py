"""Hierarchical, named random-number streams.

Every random choice in the simulated system (thread dispatch, network
latency, execution-time jitter, clock read jitter...) draws from a stream
obtained from a single :class:`RngTree`.  Streams are derived from the
root seed and the stream *name* via SHA-256, so:

* two streams with different names are statistically independent;
* adding a new consumer of randomness does not perturb existing streams
  (unlike sharing one ``random.Random``), which keeps experiments
  comparable across code versions;
* a run is fully determined by ``(root seed, program)``.

Stream hooks
------------

:func:`stream_hooks` lets tooling intercept streams as they are created:
a hook receives the stream's fully qualified path (e.g.
``"platform.fusion-ecu/scheduler"``) and the seeded
:class:`random.Random`, and may return a replacement object.  This is
how :mod:`repro.explore` records, replays and perturbs scheduler
decisions without the application code knowing — the hook stack active
when a tree is *constructed* is snapshotted into it (and inherited by
child trees), so an experiment run inside a ``with stream_hooks(...)``
block is instrumented end to end.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro._draws import randbelow

#: A hook maps (full stream path, seeded stream) to a replacement
#: stream-like object, or ``None`` to leave the stream untouched.
StreamHook = Callable[[str, random.Random], Any]

_active_hooks: list[StreamHook] = []


@contextmanager
def stream_hooks(*hooks: StreamHook) -> Iterator[None]:
    """Install *hooks* for every :class:`RngTree` built in this block."""
    _active_hooks.extend(hooks)
    try:
        yield
    finally:
        for hook in hooks:
            _active_hooks.remove(hook)


class RngTree:
    """Derives independent :class:`random.Random` streams from one seed."""

    def __init__(self, seed: int, _path: str = "", _hooks: tuple | None = None) -> None:
        self._seed = int(seed)
        self._path = _path
        self._hooks: tuple = (
            tuple(_active_hooks) if _hooks is None else _hooks
        )
        self._streams: dict[str, Any] = {}

    @property
    def seed(self) -> int:
        """The root seed this tree was created with."""
        return self._seed

    def stream_path(self, name: str) -> str:
        """The fully qualified path of stream *name* in this tree."""
        return f"{self._path}/{name}" if self._path else name

    def stream(self, name: str) -> random.Random:
        """Return the stream for *name*, creating it on first use.

        Repeated calls with the same name return the same object, so a
        component can re-fetch its stream instead of storing it.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(f"{self._seed}/{name}".encode()).digest()
        stream: Any = random.Random(int.from_bytes(digest[:8], "big"))
        for hook in self._hooks:
            replacement = hook(self.stream_path(name), stream)
            if replacement is not None:
                stream = replacement
        self._streams[name] = stream
        return stream

    def child(self, name: str) -> "RngTree":
        """Return a sub-tree whose streams are namespaced under *name*."""
        digest = hashlib.sha256(f"{self._seed}/{name}/tree".encode()).digest()
        path = f"{self._path}/{name}" if self._path else name
        return RngTree(
            int.from_bytes(digest[:8], "big"), _path=path, _hooks=self._hooks
        )

    def __repr__(self) -> str:
        return f"RngTree(seed={self._seed})"


class RandomDecisionSource:
    """Adapts a plain :class:`random.Random` to the scheduler's decision
    interface (see :class:`repro.sim.scheduler.CpuScheduler`).

    The draw sequence is exactly the pre-decision-source behaviour: one
    draw identical to ``randrange(len(candidates))`` per pick, one
    identical to ``randint(0, bound_ns)`` per jitter (both through
    :func:`randbelow`), nothing for preemption queries.  Wrapping a
    stream in this adapter leaves every seeded experiment bit-identical.
    """

    __slots__ = ("_rng",)

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def pick_index(self, kind: str, candidates: list) -> int:
        """Choose one of the *candidates* threads; returns its index."""
        return randbelow(self._rng, len(candidates))

    def jitter(self, kind: str, name: str, bound_ns: int) -> int:
        """A random delay in ``[0, bound_ns]`` for thread *name*."""
        return randbelow(self._rng, bound_ns + 1)

    def preempt(self, name: str) -> int:
        """Extra preemption delay before dispatching *name* (default 0)."""
        return 0
