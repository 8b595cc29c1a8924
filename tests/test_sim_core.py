"""Unit tests for the discrete-event simulation kernel."""

import heapq

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.post_at(30, lambda: fired.append("c"))
        sim.post_at(10, lambda: fired.append("a"))
        sim.post_at(20, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 30

    def test_equal_time_fifo(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.post_at(10, lambda label=label: fired.append(label))
        sim.run()
        assert fired == list("abcde")

    def test_after_is_relative(self):
        sim = Simulator()
        times = []
        sim.post_at(100, lambda: sim.post_after(50, lambda: times.append(sim.now)))
        sim.run()
        assert times == [150]

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.post_at(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.post_at(50, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().post_after(-1, lambda: None)


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.post_at(10, lambda: fired.append(1))
        sim.post_at(100, lambda: fired.append(2))
        sim.run(until=50)
        assert fired == [1]
        assert sim.now == 50
        sim.run()
        assert fired == [1, 2]

    def test_run_until_advances_time_without_events(self):
        sim = Simulator()
        sim.run(until=1000)
        assert sim.now == 1000

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.post_at(50, lambda: fired.append(1))
        sim.run(until=50)
        assert fired == [1]


def _edge_queue(reenter: bool = False):
    """A queue with every shape ``run(until=)`` has to get right.

    Every event that fires appends ``(now, label)`` to the log, so the
    log length is the number of events fired.  With *reenter*, the
    event at 90 also tries a nested ``run``.
    """
    sim = Simulator()
    log = []

    def mark(label):
        return lambda: log.append((sim.now, label))

    def fan():
        # Zero-delay reposts while the time-30 bucket is dispatching.
        log.append((sim.now, "fan"))
        sim.post_after(0, mark("fan+0"))
        sim.post_at(sim.now, mark("fan+0 at"))
        sim.timer_at(sim.now, mark("fan+0 timer"))

    def boundary():
        # Fires at a slice boundary and reposts at and just past it.
        log.append((sim.now, "boundary"))
        sim.post_after(0, mark("boundary+0"))
        sim.post_after(1, mark("boundary+1"))

    def only_entry():
        # The only entry at 120: its zero-delay repost makes a new
        # bucket at a time already popped.
        log.append((sim.now, "only"))
        sim.post_after(0, mark("only+0"))

    doomed = sim.timer_at(60, mark("doomed"))
    same_bucket = []

    def cancel_doomed():
        log.append((sim.now, "cancel doomed"))
        sim.cancel_timer(doomed)  # leaves a stale heap time at 60

    def cancel_same_bucket():
        log.append((sim.now, "cancel same-bucket"))
        sim.cancel_timer(same_bucket.pop())
        # Re-arm at the cancelled timer's time: may reuse a pooled handle.
        sim.timer_at(70, mark("rearmed"))

    def nested():
        log.append((sim.now, "nested"))
        try:
            sim.run(until=95)
        except SimulationError:
            log.append((sim.now, "nested run rejected"))

    sim.post_at(20, cancel_doomed)
    sim.post_at(30, fan)
    sim.post_at(30, mark("fan sibling"))
    sim.post_at(40, mark("first40"))
    sim.timer_at(40, mark("timer40"))
    sim.post_at(40, mark("last40"))
    sim.timer_at(50, mark("timer-a"))
    sim.post_at(50, boundary)
    sim.post_at(70, cancel_same_bucket)
    same_bucket.append(sim.timer_at(70, mark("cancelled in its bucket")))
    sim.timer_at(80, mark("live timer"))
    if reenter:
        sim.post_at(90, nested)
    sim.post_at(100, mark("at-b"))
    sim.post_at(100, mark("last-b"))
    sim.post_at(120, only_entry)
    sim.post_at(150, mark("past"))
    return sim, log


#: Slice boundaries: before, at and between the queue's event times.
_BOUNDS = (0, 20, 29, 30, 40, 50, 51, 69, 70, 100, 120, 149, 150, 1000)


def _observe(sim, log):
    return list(log), sim.now, sim.events_processed, sim.pending_count()


def _step_reference(until):
    """Fire the events at or before *until* one ``step()`` at a time."""
    sim, log = _edge_queue()
    while sim.step():
        if log[-1][0] > until:
            # One step too far: replay one step fewer on a fresh queue.
            count = len(log) - 1
            sim, log = _edge_queue()
            for _ in range(count):
                assert sim.step()
            break
    log_, now, processed, pending = _observe(sim, log)
    return log_, max(now, until), processed, pending


class TestRunUntilSlices:
    """``run(until=a); run(until=b)`` == ``run(until=b)`` == stepping."""

    @pytest.mark.parametrize("b", _BOUNDS)
    def test_one_run_matches_step_reference(self, b):
        sim, log = _edge_queue()
        sim.run(until=b)
        assert _observe(sim, log) == _step_reference(b)

    @pytest.mark.parametrize(
        "a,b", [(a, b) for a in _BOUNDS for b in _BOUNDS if a <= b]
    )
    def test_two_slices_match_one_run(self, a, b):
        sliced, sliced_log = _edge_queue()
        sliced.run(until=a)
        assert sliced.now == a
        sliced.run(until=b)
        assert _observe(sliced, sliced_log) == _step_reference(b)

    def test_edges_fire_as_specified(self):
        sim, log = _edge_queue()
        sim.run(until=100)
        labels = [label for _time, label in log]
        # Insertion order orders a time, whatever the scheduling call;
        # zero-delay reposts follow their bucket.
        first = labels.index("first40")
        assert labels[first : first + 3] == ["first40", "timer40", "last40"]
        fan = labels.index("fan")
        assert labels[fan : fan + 5] == [
            "fan",
            "fan sibling",
            "fan+0",
            "fan+0 at",
            "fan+0 timer",
        ]
        # Events exactly at until fire, repost-at-until included; the
        # rest wait, and cancelled pooled timers never fire.
        assert (100, "last-b") == log[-1]
        assert "boundary+0" in labels and "boundary+1" in labels
        assert "doomed" not in labels
        assert "cancelled in its bucket" not in labels
        assert "rearmed" in labels and "live timer" in labels
        assert sim.now == 100
        assert sim.pending_count() == 2  # only at 120, past at 150
        sim.run()
        assert [label for _t, label in log[-3:]] == ["only", "only+0", "past"]

    def test_stale_heap_time_past_until(self):
        sim = Simulator()
        fired = []
        sim.post_at(10, lambda: fired.append(sim.now))
        sim.run()
        # A heap time whose bucket has gone (a cancel that empties a
        # bucket leaves these behind) lying past the slice.
        heapq.heappush(sim._times, 500)
        sim.post_at(600, lambda: fired.append(sim.now))
        sim.run(until=400)
        assert (sim.now, sim.events_processed, sim.pending_count()) == (400, 1, 1)
        sim.run(until=550)
        assert (sim.now, fired) == (550, [10])
        sim.run(until=600)
        assert fired == [10, 600]
        assert sim.step() is False

    def test_reentrant_run_rejected_mid_slice(self):
        sliced, sliced_log = _edge_queue(reenter=True)
        sliced.run(until=90)
        sliced.run(until=200)
        single, single_log = _edge_queue(reenter=True)
        single.run(until=200)
        assert _observe(sliced, sliced_log) == _observe(single, single_log)
        assert (90, "nested run rejected") in single_log
        # The rejected nested call left the kernel runnable.
        single.post_after(5, lambda: single_log.append((single.now, "after")))
        single.run()
        assert single_log[-1] == (205, "after")


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.timer_at(10, lambda: fired.append(1))
        sim.cancel_timer(handle)
        sim.run()
        assert fired == []
        assert handle._callback is None

    def test_pending_count_ignores_cancelled(self):
        sim = Simulator()
        keep = sim.timer_at(10, lambda: None)
        drop = sim.timer_at(20, lambda: None)
        sim.cancel_timer(drop)
        assert sim.pending_count() == 1
        assert keep._callback is not None

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.timer_at(10, lambda: None)
        sim.run()
        sim.cancel_timer(handle)  # must not raise, nor recycle it twice
        assert sim._pool == [handle]


class TestCancelTimer:
    """``cancel_timer`` takes a pending pooled handle out of the queue at
    once; a handle whose bucket is dispatching is only cleared, and no
    handle ever enters the freelist twice."""

    @staticmethod
    def _assert_pool_distinct(sim):
        assert len({id(handle) for handle in sim._pool}) == len(sim._pool)

    def test_pending_handle_leaves_the_queue_and_is_reused(self):
        sim = Simulator()
        fired = []
        handle = sim.timer_at(50, lambda: fired.append("doomed"))
        sim.post_at(10, lambda: fired.append("live"))
        sim.cancel_timer(handle)
        assert sim.pending_count() == 1 and sim._pool == [handle]
        assert 50 not in sim._buckets  # the emptied bucket went too
        again = sim.timer_at(60, lambda: fired.append("rearmed"))
        assert again is handle and sim._pool == []
        sim.run()
        assert fired == ["live", "rearmed"] and sim.now == 60
        self._assert_pool_distinct(sim)

    def test_bucket_keeps_its_other_entries(self):
        sim = Simulator()
        fired = []
        first = sim.timer_at(30, lambda: fired.append("first"))
        doomed = sim.timer_at(30, lambda: fired.append("doomed"))
        sim.post_at(30, lambda: fired.append("posted"))
        sim.cancel_timer(doomed)
        sim.run()
        assert fired == ["first", "posted"] and first is not doomed
        self._assert_pool_distinct(sim)

    def test_handle_in_the_dispatching_bucket_is_only_flagged(self):
        sim = Simulator()
        fired = []
        later = []
        sim.post_at(70, lambda: sim.cancel_timer(later[0]))
        later.append(sim.timer_at(70, lambda: fired.append("cancelled")))
        sim.timer_at(80, lambda: fired.append("live"))
        sim.run()
        assert fired == ["live"] and later[0]._callback is None
        assert len(sim._pool) == 2
        self._assert_pool_distinct(sim)

    @pytest.mark.parametrize("driver", ["run", "step"])
    def test_firing_handle_cancelling_itself_is_recycled_once(self, driver):
        sim = Simulator()
        handles = []

        def fire():
            sim.post_after(0, lambda: None)  # a new bucket at this time
            sim.cancel_timer(handles[0])

        handles.append(sim.timer_at(20, fire))
        if driver == "run":
            sim.run()
        else:
            while sim.step():
                pass
        assert sim._pool == handles and sim.events_processed == 2

    def test_step_path(self):
        sim = Simulator()
        fired = []
        later = []

        def cancel():
            fired.append("cancel")
            sim.cancel_timer(later[0])

        sim.timer_at(70, cancel)
        later.append(sim.timer_at(70, lambda: fired.append("cancelled")))
        sim.timer_at(70, lambda: fired.append("after"))
        while sim.step():
            pass
        assert fired == ["cancel", "after"]
        assert sim.events_processed == 2 and sim.pending_count() == 0
        self._assert_pool_distinct(sim)

    def test_brake_dear_handle_pool_does_not_grow_with_frames(self, monkeypatch):
        """Deadlines of condition-variable waits that a notify beat are
        recycled as they are cancelled, so a DEAR run allocates the same
        few pooled handles whatever its length."""
        from dataclasses import replace

        from repro.apps import registry

        pools = []
        close = Simulator.close

        def record_pool(sim):
            pools.append(len(sim._pool))
            close(sim)

        monkeypatch.setattr(Simulator, "close", record_pool)
        definition = registry.get("brake")
        sizes = {}
        for frames in (50, 200):
            pools.clear()
            scenario = replace(definition.default_scenario(), n_frames=frames)
            definition.runner("det")(3, scenario)
            sizes[frames] = sum(pools)
        assert sizes[50] == sizes[200] < 20, sizes

class TestStep:
    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in (1, 2, 3):
            sim.post_at(t, lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.post_at(1, reenter)
        sim.run()
