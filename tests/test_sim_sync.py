"""Unit tests for semaphores and message queues."""

import pytest

from repro.sim import Compute, Sleep, World
from repro.sim.platform import PlatformConfig
from repro.sim.sync import Semaphore
from repro.time import MS


def make_platform(seed=0, cores=1):
    world = World(seed)
    config = PlatformConfig(num_cores=cores, dispatch_jitter_ns=0, timer_jitter_ns=0)
    return world, world.add_platform("p", config)


class TestSemaphore:
    def test_acquire_release_cycle(self):
        world, platform = make_platform()
        sem = Semaphore(initial=1)
        log = []

        def body(name):
            yield from sem.acquire()
            log.append((name, "in"))
            yield Compute(5 * MS)
            log.append((name, "out"))
            yield from sem.release()

        platform.spawn("a", body("a"))
        platform.spawn("b", body("b"))
        world.run_to_completion()
        # With one permit, sections never interleave.
        assert log[0][1] == "in" and log[1][1] == "out"
        assert log[2][1] == "in" and log[3][1] == "out"

    def test_counting_allows_n_holders(self):
        world, platform = make_platform(cores=3)
        sem = Semaphore(initial=2)
        inside = [0]
        peak = [0]

        def body():
            yield from sem.acquire()
            inside[0] += 1
            peak[0] = max(peak[0], inside[0])
            yield Compute(5 * MS)
            inside[0] -= 1
            yield from sem.release()

        for index in range(4):
            platform.spawn(f"t{index}", body())
        world.run_to_completion()
        assert peak[0] == 2

    def test_release_before_acquire(self):
        world, platform = make_platform()
        sem = Semaphore(initial=0)
        log = []

        def producer():
            yield Sleep(2 * MS)
            yield from sem.release()

        def consumer():
            yield from sem.acquire()
            log.append(world.now)

        platform.spawn("c", consumer())
        platform.spawn("p", producer())
        world.run_to_completion()
        assert log == [2 * MS]

    def test_negative_initial_rejected(self):
        with pytest.raises(ValueError):
            Semaphore(initial=-1)


class TestMessageQueueBlocking:
    def test_put_blocks_when_full(self):
        world, platform = make_platform()
        queue = platform.queue(capacity=1)
        log = []

        def producer():
            yield from queue.put("a")
            log.append(("put-a", world.now))
            yield from queue.put("b")
            log.append(("put-b", world.now))

        def consumer():
            yield Sleep(10 * MS)
            item = yield from queue.get()
            log.append(("got", item, world.now))

        platform.spawn("p", producer())
        platform.spawn("c", consumer())
        world.run_to_completion()
        assert log[0] == ("put-a", 0)
        # put-b only succeeds once the consumer drained a slot.
        put_b = [entry for entry in log if entry[0] == "put-b"][0]
        assert put_b[1] >= 10 * MS

    def test_get_until_times_out(self):
        world, platform = make_platform()
        queue = platform.queue()
        log = []

        def consumer():
            item = yield from queue.get_until(platform.local_now() + 5 * MS)
            log.append((item, world.now))

        platform.spawn("c", consumer())
        world.run_to_completion()
        assert log == [(None, 5 * MS)]

    def test_get_until_returns_item_in_time(self):
        world, platform = make_platform()
        queue = platform.queue()
        log = []

        def consumer():
            item = yield from queue.get_until(platform.local_now() + 50 * MS)
            log.append(item)

        platform.spawn("c", consumer())
        world.sim.post_at(2 * MS, lambda: queue.post("payload"))
        world.run_to_completion()
        assert log == ["payload"]

    def test_try_get(self):
        world, platform = make_platform()
        queue = platform.queue()
        queue.post("x")
        log = []

        def consumer():
            log.append((yield from queue.try_get()))
            log.append((yield from queue.try_get()))

        platform.spawn("c", consumer())
        world.run_to_completion()
        assert log == ["x", None]


class TestOverflowPolicies:
    def _full_queue(self, policy):
        world, platform = make_platform()
        queue = platform.queue(capacity=2, overflow=policy)
        queue.post(1)
        queue.post(2)
        return world, queue

    def test_error_policy_raises(self):
        world, queue = self._full_queue("error")
        with pytest.raises(OverflowError):
            queue.post(3)

    def test_drop_new_discards_posted(self):
        world, queue = self._full_queue("drop-new")
        assert queue.post(3) is False
        assert queue.peek_all() == [1, 2]
        assert queue.dropped == 1

    def test_drop_old_discards_oldest(self):
        world, queue = self._full_queue("drop-old")
        assert queue.post(3) is True
        assert queue.peek_all() == [2, 3]
        assert queue.dropped == 1

    def test_unknown_policy_rejected(self):
        world, platform = make_platform()
        with pytest.raises(ValueError):
            platform.queue(overflow="maybe")

    def test_len_and_capacity(self):
        world, platform = make_platform()
        queue = platform.queue(capacity=3)
        assert queue.capacity == 3
        queue.post("a")
        assert len(queue) == 1
