"""Unit tests for the LET baseline."""

import pytest

from repro.let import LetChannel, LetExecutor, LetTask
from repro.sim import World
from repro.sim.platform import CALM, MINNOWBOARD
from repro.time import MS


def make_executor(seed=0, config=CALM):
    world = World(seed)
    platform = world.add_platform("ecu", config)
    return world, LetExecutor(platform)


class TestLetSemantics:
    def test_outputs_visible_exactly_one_period_later(self):
        world, executor = make_executor()
        channel = LetChannel("c", keep_history=True)
        task = LetTask(
            "producer",
            period_ns=10 * MS,
            body=lambda inputs: {"out": world.now},
            writes={"out": channel},
            wcet_ns=2 * MS,
        )
        executor.add_task(task)
        executor.start(35 * MS)
        world.run_to_completion()
        publish_times = [time for time, _ in channel.history]
        assert publish_times == [10 * MS, 20 * MS, 30 * MS, 40 * MS]
        # The body runs *inside* the window (here: wcet after release),
        # but its output becomes visible only at the window end.
        assert [value for _, value in channel.history] == [
            2 * MS, 12 * MS, 22 * MS, 32 * MS
        ]

    def test_chain_latency_is_one_period_per_hop(self):
        world, executor = make_executor()
        c1 = LetChannel("c1")
        c2 = LetChannel("c2", keep_history=True)
        executor.add_task(LetTask(
            "stage1", 10 * MS,
            body=lambda inputs: {"out": "payload"},
            writes={"out": c1}, wcet_ns=1 * MS,
        ))
        executor.add_task(LetTask(
            "stage2", 10 * MS,
            body=lambda inputs: {"out": inputs["inp"]},
            reads={"inp": c1}, writes={"out": c2}, wcet_ns=1 * MS,
        ))
        executor.start(50 * MS)
        world.run_to_completion()
        arrivals = [time for time, value in c2.history if value == "payload"]
        # stage1 publishes at 10ms; stage2 samples it at its 10ms release
        # and publishes at 20ms: two periods end-to-end.
        assert arrivals and arrivals[0] == 20 * MS

    def test_overrun_skips_publish(self):
        world, executor = make_executor()
        channel = LetChannel("c", initial="old")
        task = LetTask(
            "slow", 10 * MS,
            body=lambda inputs: {"out": "new"},
            writes={"out": channel},
            wcet_ns=15 * MS,  # exceeds the period
        )
        executor.add_task(task)
        executor.start(10 * MS)
        world.run_to_completion()
        assert task.overruns == 1
        assert task.completions == 0
        assert channel.value == "old"

    def test_determinism_across_seeds_with_jitter(self):
        """LET dataflow must not depend on scheduling noise (its point)."""

        def run(seed):
            world, executor = make_executor(seed, config=MINNOWBOARD)
            c1 = LetChannel("c1")
            c2 = LetChannel("c2", keep_history=True)
            counter = {"n": 0}

            def produce(inputs):
                counter["n"] += 1
                return {"out": counter["n"]}

            executor.add_task(LetTask(
                "p", 10 * MS, produce, writes={"out": c1}, wcet_ns=3 * MS,
            ))
            executor.add_task(LetTask(
                "q", 10 * MS,
                body=lambda inputs: {"out": inputs["inp"]},
                reads={"inp": c1}, writes={"out": c2}, wcet_ns=3 * MS,
            ))
            executor.start(100 * MS)
            world.run_to_completion()
            return tuple(c2.history)

        assert len({run(seed) for seed in range(5)}) == 1

    @pytest.mark.parametrize(
        "reader_period,reader_offset", [(20 * MS, 0), (10 * MS, 10 * MS)]
    )
    def test_reader_listed_first_sees_same_instant_publish(
        self, reader_period, reader_offset
    ):
        """A publish precedes every read at its instant, whatever the
        order the tasks were added in."""
        world, executor = make_executor()
        channel = LetChannel("c")
        seen = []
        executor.add_task(LetTask(
            "reader", reader_period,
            body=lambda inputs: seen.append(inputs["inp"]),
            reads={"inp": channel}, offset_ns=reader_offset,
        ))
        executor.add_task(LetTask(
            "writer", 10 * MS,
            body=lambda inputs: {"out": world.now},
            writes={"out": channel}, wcet_ns=1 * MS,
        ))
        executor.start(50 * MS)
        world.run_to_completion()
        # The writer's window [T - 10 ms, T] computes at T - 9 ms and
        # publishes at T, where the reader samples it.
        assert seen == [
            None if release == 0 else release - 9 * MS
            for release in range(reader_offset, 50 * MS, reader_period)
        ]

    @pytest.mark.parametrize(
        "wcet_ns,outcome", [(10 * MS, (3, 0, "old")), (10 * MS - 1, (0, 3, "new"))]
    )
    def test_body_finishing_at_its_window_end_overruns(self, wcet_ns, outcome):
        """On CALM a body with ``wcet == period`` completes at the very
        instant of its publish, which fires first: an overrun.  One
        nanosecond of slack is enough to publish."""
        world, executor = make_executor()
        channel = LetChannel("c", initial="old")
        task = LetTask(
            "t", 10 * MS, lambda inputs: {"out": "new"},
            writes={"out": channel}, wcet_ns=wcet_ns,
        )
        executor.add_task(task)
        executor.start(30 * MS)
        world.run_to_completion()
        assert (task.overruns, task.completions, channel.value) == outcome

    def test_offset_shifts_schedule(self):
        world, executor = make_executor()
        channel = LetChannel("c", keep_history=True)
        executor.add_task(LetTask(
            "t", 10 * MS, lambda inputs: {"out": 1},
            writes={"out": channel}, offset_ns=3 * MS,
        ))
        executor.start(25 * MS)
        world.run_to_completion()
        assert [time for time, _ in channel.history] == [13 * MS, 23 * MS, 33 * MS]


class TestValidation:
    def test_bad_period(self):
        with pytest.raises(ValueError):
            LetTask("t", 0, lambda inputs: None)

    def test_add_after_start_rejected(self):
        world, executor = make_executor()
        executor.start(10 * MS)
        with pytest.raises(RuntimeError):
            executor.add_task(LetTask("t", 10 * MS, lambda inputs: None))
