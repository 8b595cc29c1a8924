"""Unit and scenario tests for simulated threads and the CPU scheduler."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import (
    Acquire,
    Compute,
    Exit,
    Join,
    Notify,
    Release,
    Sleep,
    SleepUntil,
    Wait,
    WaitResult,
    WaitUntil,
    World,
    Yield,
)
from repro.sim.platform import PlatformConfig
from repro.time import MS, US


def calm_platform(seed=0, cores=1):
    world = World(seed)
    config = PlatformConfig(
        num_cores=cores, dispatch_jitter_ns=0, timer_jitter_ns=0
    )
    return world, world.add_platform("p", config)


class TestBasicExecution:
    def test_thread_runs_and_returns(self):
        world, platform = calm_platform()

        def body():
            yield Compute(10)
            return 42

        thread = platform.spawn("t", body())
        world.run_to_completion()
        assert thread.done
        assert thread.result == 42

    def test_compute_advances_time(self):
        world, platform = calm_platform()
        seen = []

        def body():
            yield Compute(5 * MS)
            seen.append(world.now)

        platform.spawn("t", body())
        world.run_to_completion()
        assert seen == [5 * MS]

    def test_sleep_releases_core_for_other_thread(self):
        world, platform = calm_platform(cores=1)
        order = []

        def sleeper():
            order.append("sleep-start")
            yield Sleep(10 * MS)
            order.append("sleep-end")

        def worker():
            yield Compute(1 * MS)
            order.append("worker-done")

        platform.spawn("sleeper", sleeper())
        platform.spawn("worker", worker(), start_delay_ns=1)
        world.run_to_completion()
        assert order == ["sleep-start", "worker-done", "sleep-end"]

    def test_sleep_until_local_time(self):
        world, platform = calm_platform()
        seen = []

        def body():
            yield SleepUntil(7 * MS)
            seen.append(platform.local_now())

        platform.spawn("t", body())
        world.run_to_completion()
        assert seen == [7 * MS]

    def test_exit_terminates_immediately(self):
        world, platform = calm_platform()

        def body():
            yield Exit("bye")
            yield Compute(1)  # never reached

        thread = platform.spawn("t", body())
        world.run_to_completion()
        assert thread.result == "bye"

    def test_zero_compute_is_noop(self):
        world, platform = calm_platform()

        def body():
            yield Compute(0)
            return "ok"

        thread = platform.spawn("t", body())
        world.run_to_completion()
        assert thread.result == "ok"

    def test_start_delay(self):
        world, platform = calm_platform()
        seen = []

        def body():
            seen.append(world.now)
            yield Compute(1)

        platform.spawn("t", body(), start_delay_ns=3 * MS)
        world.run_to_completion()
        assert seen == [3 * MS]


class TestCores:
    def test_single_core_serializes_compute(self):
        world, platform = calm_platform(cores=1)
        finished = []

        def body(name):
            yield Compute(10 * MS)
            finished.append((name, world.now))

        platform.spawn("a", body("a"))
        platform.spawn("b", body("b"))
        world.run_to_completion()
        times = sorted(t for _, t in finished)
        assert times == [10 * MS, 20 * MS]

    def test_two_cores_run_in_parallel(self):
        world, platform = calm_platform(cores=2)
        finished = []

        def body(name):
            yield Compute(10 * MS)
            finished.append((name, world.now))

        platform.spawn("a", body("a"))
        platform.spawn("b", body("b"))
        world.run_to_completion()
        assert [t for _, t in finished] == [10 * MS, 10 * MS]

    def test_scheduling_order_varies_with_seed(self):
        """With one core the dispatch order among ready threads is random."""
        outcomes = set()
        for seed in range(20):
            world, platform = calm_platform(seed=seed)
            order = []

            def body(name, order=order):
                yield Compute(1)
                order.append(name)

            for name in ("a", "b", "c"):
                platform.spawn(name, body(name))
            world.run_to_completion()
            outcomes.add(tuple(order))
        assert len(outcomes) > 1

    def test_same_seed_same_order(self):
        def run(seed):
            world, platform = calm_platform(seed=seed)
            order = []

            def body(name, order=order):
                yield Compute(1)
                order.append(name)

            for name in ("a", "b", "c", "d"):
                platform.spawn(name, body(name))
            world.run_to_completion()
            return tuple(order)

        assert run(123) == run(123)


class TestMutex:
    def test_mutual_exclusion(self):
        world, platform = calm_platform(cores=2)
        mutex = platform.mutex()
        in_critical = [0]
        max_seen = [0]

        def body():
            for _ in range(10):
                yield Acquire(mutex)
                in_critical[0] += 1
                max_seen[0] = max(max_seen[0], in_critical[0])
                yield Compute(1 * US)
                in_critical[0] -= 1
                yield Release(mutex)

        for name in ("a", "b", "c"):
            platform.spawn(name, body())
        world.run_to_completion()
        assert max_seen[0] == 1

    def test_release_unowned_rejected(self):
        world, platform = calm_platform()
        mutex = platform.mutex()

        def body():
            yield Release(mutex)

        platform.spawn("t", body())
        with pytest.raises(SimulationError):
            world.run_to_completion()

    def test_reacquire_rejected(self):
        world, platform = calm_platform()
        mutex = platform.mutex()

        def body():
            yield Acquire(mutex)
            yield Acquire(mutex)

        platform.spawn("t", body())
        with pytest.raises(SimulationError):
            world.run_to_completion()

    def test_deadlock_detected(self):
        world, platform = calm_platform()
        m1, m2 = platform.mutex("m1"), platform.mutex("m2")

        def first():
            yield Acquire(m1)
            yield Sleep(1 * MS)
            yield Acquire(m2)

        def second():
            yield Acquire(m2)
            yield Sleep(1 * MS)
            yield Acquire(m1)

        platform.spawn("a", first())
        platform.spawn("b", second())
        with pytest.raises(DeadlockError):
            world.run_to_completion()


class TestCondVar:
    def test_wait_notify(self):
        world, platform = calm_platform()
        mutex = platform.mutex()
        cv = platform.condvar()
        log = []

        def waiter():
            yield Acquire(mutex)
            result = yield Wait(cv, mutex)
            log.append(("woken", result))
            yield Release(mutex)

        def notifier():
            yield Sleep(5 * MS)
            yield Acquire(mutex)
            yield Notify(cv)
            yield Release(mutex)

        platform.spawn("w", waiter())
        platform.spawn("n", notifier())
        world.run_to_completion()
        assert log == [("woken", WaitResult.NOTIFIED)]

    def test_wait_without_mutex_rejected(self):
        world, platform = calm_platform()
        mutex = platform.mutex()
        cv = platform.condvar()

        def body():
            yield Wait(cv, mutex)

        platform.spawn("t", body())
        with pytest.raises(SimulationError):
            world.run_to_completion()

    def test_wait_until_timeout(self):
        world, platform = calm_platform()
        mutex = platform.mutex()
        cv = platform.condvar()
        log = []

        def waiter():
            yield Acquire(mutex)
            result = yield WaitUntil(cv, mutex, platform.local_now() + 5 * MS)
            log.append((result, platform.local_now()))
            yield Release(mutex)

        platform.spawn("w", waiter())
        world.run_to_completion()
        assert log == [(WaitResult.TIMEOUT, 5 * MS)]

    def test_wait_until_notified_before_deadline(self):
        world, platform = calm_platform()
        mutex = platform.mutex()
        cv = platform.condvar()
        log = []

        def waiter():
            yield Acquire(mutex)
            result = yield WaitUntil(cv, mutex, platform.local_now() + 50 * MS)
            log.append(result)
            yield Release(mutex)

        def notifier():
            yield Sleep(2 * MS)
            yield Acquire(mutex)
            yield Notify(cv)
            yield Release(mutex)

        platform.spawn("w", waiter())
        platform.spawn("n", notifier())
        world.run_to_completion()
        assert log == [WaitResult.NOTIFIED]



class TestMutexFreeWait:
    """``Wait(cv, None)``/``WaitUntil(cv, None, t)``: a thread that is the
    condition's sole consumer, fed from kernel context, waits on the
    condition variable alone."""

    def test_wait_resumes_on_notify(self):
        world, platform = calm_platform()
        cv = platform.condvar()
        log = []

        def waiter():
            result = yield Wait(cv, None)
            log.append((result, platform.local_now()))

        platform.spawn("w", waiter())
        world.sim.post_at(3 * MS, lambda: platform.scheduler.external_notify(cv))
        world.run_to_completion()
        assert log == [(WaitResult.NOTIFIED, 3 * MS)]

    def test_wait_until_resumes_on_notify(self):
        world, platform = calm_platform()
        cv = platform.condvar()
        log = []

        def waiter():
            result = yield WaitUntil(cv, None, platform.local_now() + 50 * MS)
            log.append((result, platform.local_now()))

        platform.spawn("w", waiter())
        world.sim.post_at(2 * MS, lambda: platform.scheduler.external_notify(cv))
        world.run_to_completion()
        assert log == [(WaitResult.NOTIFIED, 2 * MS)]
        # The cancelled deadline left the queue with the notify.
        assert world.sim.pending_count() == 0 and world.sim.now == 2 * MS

    def test_wait_until_times_out(self):
        world, platform = calm_platform()
        cv = platform.condvar()
        log = []

        def waiter():
            result = yield WaitUntil(cv, None, platform.local_now() + 5 * MS)
            log.append((result, platform.local_now()))
            result = yield WaitUntil(cv, None, platform.local_now() + 1 * MS)
            log.append((result, platform.local_now()))

        platform.spawn("w", waiter())
        world.run_to_completion()
        assert log == [(WaitResult.TIMEOUT, 5 * MS), (WaitResult.TIMEOUT, 6 * MS)]

    def test_notify_from_a_thread_wakes_a_mutex_free_waiter(self):
        world, platform = calm_platform()
        cv = platform.condvar()
        log = []

        def waiter():
            log.append((yield Wait(cv, None)))

        def notifier():
            yield Sleep(1 * MS)
            yield Notify(cv)

        platform.spawn("w", waiter())
        platform.spawn("n", notifier())
        world.run_to_completion()
        assert log == [WaitResult.NOTIFIED]

    def test_wait_on_a_mutex_held_by_another_thread_rejected(self):
        world, platform = calm_platform()
        mutex = platform.mutex()
        cv = platform.condvar()

        def holder():
            yield Acquire(mutex)
            yield Sleep(10 * MS)
            yield Release(mutex)

        def body():
            yield Sleep(1 * MS)
            yield WaitUntil(cv, mutex, platform.local_now() + 1 * MS)

        platform.spawn("h", holder())
        platform.spawn("t", body())
        with pytest.raises(SimulationError, match="without holding"):
            world.run_to_completion()

class TestJoin:
    def test_join_returns_result(self):
        world, platform = calm_platform()
        log = []

        def child():
            yield Compute(3 * MS)
            return "payload"

        def parent():
            thread = platform.spawn("child", child())
            result = yield Join(thread)
            log.append((result, world.now))

        platform.spawn("parent", parent())
        world.run_to_completion()
        assert log == [("payload", 3 * MS)]

    def test_join_finished_thread_immediate(self):
        world, platform = calm_platform()
        log = []

        def child():
            yield Compute(1)
            return 7

        thread = platform.spawn("child", child())

        def parent():
            yield Sleep(5 * MS)
            result = yield Join(thread)
            log.append(result)

        platform.spawn("parent", parent())
        world.run_to_completion()
        assert log == [7]


class TestPeriodic:
    def test_periodic_activations(self):
        world, platform = calm_platform()
        ticks = []

        def body():
            ticks.append(platform.local_now())
            yield Compute(1 * MS)

        platform.periodic("tick", 10 * MS, body, offset_ns=2 * MS)
        world.run_for(45 * MS)
        assert ticks == [2 * MS, 12 * MS, 22 * MS, 32 * MS, 42 * MS]

    def test_overrun_skips_activations(self):
        world, platform = calm_platform()
        ticks = []

        def body():
            ticks.append(platform.local_now())
            yield Compute(25 * MS)  # overruns a 10 ms period

        task = platform.periodic("slow", 10 * MS, body)
        world.run_for(100 * MS)
        assert task.overruns > 0
        # activations anchored to the grid: 0, 30, 60, 90
        assert ticks == [0, 30 * MS, 60 * MS, 90 * MS]

    def test_cancel_stops_task(self):
        world, platform = calm_platform()
        ticks = []

        def body():
            ticks.append(platform.local_now())
            yield Compute(1)

        task = platform.periodic("tick", 10 * MS, body)
        world.run_for(25 * MS)
        task.cancel()
        count = len(ticks)
        world.run_for(50 * MS)
        assert len(ticks) == count


class TestYield:
    def test_yield_interleaves(self):
        world, platform = calm_platform(seed=3)
        log = []

        def body(name):
            for i in range(3):
                log.append((name, i))
                yield Yield()

        platform.spawn("a", body("a"))
        platform.spawn("b", body("b"))
        world.run_to_completion()
        assert len(log) == 6
        assert {name for name, _ in log} == {"a", "b"}
