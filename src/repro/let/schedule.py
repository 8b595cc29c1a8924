"""The LET executor.

Release and publish happen at *exact* logical instants implemented as
kernel events (a real LET OS layer anchors them to timer interrupts
with bounded jitter; the determinism argument requires only that reads
and publishes happen in the right order at the boundaries, which the
kernel's insertion order guarantees here):

* at ``offset + k * period`` the task's inputs are sampled and the body
  is dispatched onto a worker thread that consumes ``wcet`` of CPU;
* at ``offset + (k + 1) * period`` the outputs are published — if and
  only if the computation finished in time; otherwise the instance is
  an overrun and publishes nothing.

:meth:`LetExecutor.start` posts every boundary before the run: all
publishes, then all releases, each in task order.  Same-instant events
fire in insertion order, so publishes precede reads at the same instant
(a task chain with equal periods has exactly one period of latency per
hop), and a body that completes exactly at its window end — an event
posted during the run — misses its publish.
"""

from __future__ import annotations

from typing import Any

from repro.sim.platform import Platform
from repro.sim.process import Compute
from repro.let.task import LetTask


class LetExecutor:
    """Runs a set of LET tasks on one platform."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self.tasks: list[LetTask] = []
        self._started = False

    def add_task(self, task: LetTask) -> None:
        """Register *task* (before :meth:`start`)."""
        if self._started:
            raise RuntimeError("cannot add tasks after start")
        self.tasks.append(task)

    def start(self, horizon_ns: int) -> None:
        """Schedule all task instances with releases before *horizon_ns*.

        Times are global simulation times; the executor anchors at the
        current instant.
        """
        self._started = True
        sim = self.platform.sim
        base = sim.now
        publishes = []
        releases = []
        for task in self.tasks:
            release = base + task.offset_ns
            while release < base + horizon_ns:
                on_release, on_publish = self._instance(task, release)
                releases.append((release, on_release))
                publishes.append((release + task.period_ns, on_publish))
                release += task.period_ns
        for time, callback in publishes + releases:
            sim.post_at(time, callback)

    def _instance(self, task: LetTask, release_ns: int):
        """The release and publish callbacks of one task instance."""
        sim = self.platform.sim
        instance: dict[str, Any] = {"done": False, "outputs": None}

        def on_release() -> None:
            task.releases += 1
            inputs = {name: channel.read() for name, channel in task.reads.items()}
            self.platform.spawn(
                f"let.{task.name}.{release_ns}", body_thread(inputs)
            )

        def body_thread(inputs):
            if task.wcet_ns > 0:
                yield Compute(task.wcet_ns)
            instance["outputs"] = task.body(inputs) or {}
            instance["done"] = True

        def on_publish() -> None:
            if not instance["done"]:
                task.overruns += 1
                return
            task.completions += 1
            outputs = instance["outputs"]
            for name, channel in task.writes.items():
                if name in outputs:
                    channel.publish(sim.now, outputs[name])

        return on_release, on_publish

    def __repr__(self) -> str:
        return f"LetExecutor(tasks={[task.name for task in self.tasks]})"
