"""Unit tests for ara futures and promises."""

import pytest

from repro.ara import FutureState, Promise
from repro.errors import FutureError
from repro.sim import Compute, Sleep, World
from repro.sim.platform import CALM
from repro.time import MS


def make_platform(seed=0):
    world = World(seed)
    return world, world.add_platform("p", CALM)


class TestStates:
    def test_initially_pending(self):
        _, platform = make_platform()
        promise = Promise(platform)
        assert promise.future.state is FutureState.PENDING
        assert not promise.future.is_ready()

    def test_resolve(self):
        _, platform = make_platform()
        promise = Promise(platform)
        promise.set_value(42)
        assert promise.future.state is FutureState.RESOLVED
        assert promise.future.result() == 42

    def test_reject(self):
        _, platform = make_platform()
        promise = Promise(platform)
        promise.set_error(RuntimeError("boom"))
        assert promise.future.state is FutureState.REJECTED
        with pytest.raises(RuntimeError):
            promise.future.result()

    def test_double_completion_rejected(self):
        _, platform = make_platform()
        promise = Promise(platform)
        promise.set_value(1)
        with pytest.raises(FutureError):
            promise.set_value(2)

    def test_result_before_ready_raises(self):
        _, platform = make_platform()
        with pytest.raises(FutureError):
            Promise(platform).future.result()


class TestBlockingGet:
    def test_get_blocks_until_fulfilled(self):
        world, platform = make_platform()
        promise = Promise(platform)
        log = []

        def consumer():
            value = yield from promise.future.get()
            log.append((value, world.now))

        def producer():
            yield Sleep(5 * MS)
            promise.set_value("done")

        platform.spawn("consumer", consumer())
        platform.spawn("producer", producer())
        world.run_to_completion()
        assert log == [("done", 5 * MS)]

    def test_get_after_ready_is_immediate(self):
        world, platform = make_platform()
        promise = Promise(platform)
        promise.set_value(7)
        log = []

        def consumer():
            yield Compute(1)
            value = yield from promise.future.get()
            log.append(value)

        platform.spawn("consumer", consumer())
        world.run_to_completion()
        assert log == [7]

    def test_get_propagates_error(self):
        world, platform = make_platform()
        promise = Promise(platform)
        log = []

        def consumer():
            try:
                yield from promise.future.get()
            except ValueError as exc:
                log.append(str(exc))

        platform.spawn("consumer", consumer())
        world.sim.post_at(1 * MS, lambda: promise.set_error(ValueError("nope")))
        world.run_to_completion()
        assert log == ["nope"]

    def test_kernel_context_fulfillment_wakes_thread(self):
        world, platform = make_platform()
        promise = Promise(platform)
        log = []

        def consumer():
            value = yield from promise.future.get()
            log.append(value)

        platform.spawn("consumer", consumer())
        world.sim.post_at(3 * MS, lambda: promise.set_value("from-kernel"))
        world.run_to_completion()
        assert log == ["from-kernel"]


class TestWaitUntil:
    def test_timeout_returns_false(self):
        world, platform = make_platform()
        promise = Promise(platform)
        log = []

        def consumer():
            ready = yield from promise.future.wait_until(platform.local_now() + 2 * MS)
            log.append((ready, world.now))

        platform.spawn("consumer", consumer())
        world.run_for(10 * MS)
        assert log == [(False, 2 * MS)]

    def test_ready_in_time_returns_true(self):
        world, platform = make_platform()
        promise = Promise(platform)
        log = []

        def consumer():
            ready = yield from promise.future.wait_until(platform.local_now() + 20 * MS)
            log.append(ready)

        platform.spawn("consumer", consumer())
        world.sim.post_at(1 * MS, lambda: promise.set_value(1))
        world.run_for(30 * MS)
        assert log == [True]


class TestThen:
    def test_then_called_on_completion(self):
        world, platform = make_platform()
        promise = Promise(platform)
        seen = []
        promise.future.then(lambda future: seen.append(future.result()))
        promise.set_value(9)
        assert seen == [9]

    def test_then_after_completion_fires_immediately(self):
        _, platform = make_platform()
        promise = Promise(platform)
        promise.set_value(3)
        seen = []
        promise.future.then(lambda future: seen.append(future.result()))
        assert seen == [3]

    def test_multiple_callbacks(self):
        _, platform = make_platform()
        promise = Promise(platform)
        seen = []
        promise.future.then(lambda f: seen.append("a"))
        promise.future.then(lambda f: seen.append("b"))
        promise.set_value(None)
        assert seen == ["a", "b"]
