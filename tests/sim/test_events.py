"""Tests for repro.sim.events."""

import pytest

from repro.sim.events import EventQueue


class TestScheduling:
    def test_executes_in_time_order(self):
        q = EventQueue()
        log = []
        q.schedule(5.0, lambda t: log.append(("b", t)))
        q.schedule(1.0, lambda t: log.append(("a", t)))
        q.schedule(9.0, lambda t: log.append(("c", t)))
        q.run_until_empty()
        assert log == [("a", 1.0), ("b", 5.0), ("c", 9.0)]

    def test_ties_broken_by_insertion_order(self):
        q = EventQueue()
        log = []
        for name in "xyz":
            q.schedule(3.0, lambda t, name=name: log.append(name))
        q.run_until_empty()
        assert log == ["x", "y", "z"]

    def test_now_advances(self):
        q = EventQueue()
        q.schedule(4.0, lambda t: None)
        q.run_until_empty()
        assert q.now == 4.0

    def test_schedule_in_past_raises(self):
        q = EventQueue()
        q.schedule(10.0, lambda t: None)
        q.run_until_empty()
        with pytest.raises(ValueError, match="before now"):
            q.schedule(5.0, lambda t: None)

    def test_schedule_nan_raises(self):
        # NaN compares false with everything: let into the heap it would
        # misorder every later entry.
        q = EventQueue()
        q.schedule(1.0, lambda t: None)
        for schedule in (q.schedule, q.schedule_in):
            with pytest.raises(ValueError):
                schedule(float("nan"), lambda t: None)
        assert len(q) == 1 == len(q._heap)

    def test_schedule_in_relative(self):
        q = EventQueue()
        times = []
        q.schedule(2.0, lambda t: q.schedule_in(3.0, lambda t2: times.append(t2)))
        q.run_until_empty()
        assert times == [5.0]

    def test_schedule_in_negative_delay_raises(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule_in(-1.0, lambda t: None)

    def test_events_scheduled_during_run_execute(self):
        q = EventQueue()
        log = []

        def chain(t):
            log.append(t)
            if t < 3.0:
                q.schedule(t + 1.0, chain)

        q.schedule(1.0, chain)
        q.run_until_empty()
        assert log == [1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        q = EventQueue()
        log = []
        handle = q.schedule(1.0, lambda t: log.append("cancelled"))
        q.schedule(2.0, lambda t: log.append("kept"))
        handle.cancel()
        q.run_until_empty()
        assert log == ["kept"]

    def test_len_ignores_cancelled(self):
        q = EventQueue()
        h1 = q.schedule(1.0, lambda t: None)
        q.schedule(2.0, lambda t: None)
        assert len(q) == 2
        h1.cancel()
        assert len(q) == 1

    def test_pop_skips_cancelled(self):
        q = EventQueue()
        h = q.schedule(1.0, lambda t: None)
        q.schedule(2.0, lambda t: None)
        h.cancel()
        assert q.pop().time == 2.0
        assert q.now == 2.0

    def test_double_cancel_counted_once(self):
        q = EventQueue()
        h = q.schedule(1.0, lambda t: None)
        q.schedule(2.0, lambda t: None)
        h.cancel()
        h.cancel()
        assert len(q) == 1

    def test_cancel_after_pop_is_noop(self):
        q = EventQueue()
        h = q.schedule(1.0, lambda t: None)
        q.schedule(2.0, lambda t: None)
        popped = q.pop()
        assert popped is h
        h.cancel()  # stale handle: the event already ran
        assert len(q) == 1

    def test_len_constant_with_many_tombstones(self):
        # len() is a maintained counter, not a heap scan: heavy cancelled
        # backlogs must not change the answer.
        q = EventQueue()
        handles = [q.schedule(float(i + 1), lambda t: None) for i in range(1000)]
        for h in handles[:900]:
            h.cancel()
        assert len(q) == 100
        q.run_until_empty()
        assert len(q) == 0


class TestCounterInvariants:
    """The O(1) ``len()`` counter must never drift from the heap's truth."""

    @staticmethod
    def _live_in_heap(q: EventQueue) -> int:
        return sum(1 for _, _, e in q._heap if not e.cancelled)

    def test_cancel_after_pop_prune_is_noop(self):
        q = EventQueue()
        h = q.schedule(1.0, lambda t: None)
        q.schedule(2.0, lambda t: None)
        q.schedule(3.0, lambda t: None)
        h.cancel()
        q.pop()  # prunes the cancelled tombstone off the heap
        h.cancel()  # stale handle, event no longer in the heap
        assert len(q) == 1 == self._live_in_heap(q)

    def test_past_event_error_keeps_counter_consistent(self):
        # Regression: the corrupted-clock error path popped the event off
        # the heap without decrementing the live counter, so a caller
        # catching the error saw len() overcount forever (and a
        # ``while len(q)`` drain would spin on pops returning None).
        q = EventQueue()
        h = q.schedule(5.0, lambda t: None)
        q.now = 10.0  # simulate a corrupted clock
        with pytest.raises(RuntimeError, match="in the past"):
            q.pop()
        assert len(q) == 0 == self._live_in_heap(q)
        assert q.pop() is None
        h.cancel()  # stale handle after the error path: still a no-op
        assert len(q) == 0

    def test_cancel_storm_never_goes_negative(self):
        q = EventQueue()
        handles = [q.schedule(float(i + 1), lambda t: None) for i in range(20)]
        for _ in range(3):  # every handle cancelled three times over
            for h in handles:
                h.cancel()
                assert len(q) >= 0
        assert len(q) == 0 == self._live_in_heap(q)
        assert q.run_until_empty() == 0

    def test_randomized_op_sequence_invariant(self):
        # White-box fuzz: across arbitrary schedule/cancel/pop interleavings
        # (including double cancels and cancels of popped handles), len()
        # must equal the number of live events actually in the heap.
        import random

        rng = random.Random(1234)
        q = EventQueue()
        handles = []
        for _ in range(600):
            op = rng.random()
            if op < 0.45:
                handles.append(
                    q.schedule(q.now + rng.uniform(0.0, 10.0), lambda t: None)
                )
            elif op < 0.8 and handles:
                rng.choice(handles).cancel()  # may be stale or already cancelled
            else:
                popped = q.pop()
                if popped is not None and rng.random() < 0.5:
                    popped.cancel()  # cancel after pop
            assert len(q) == self._live_in_heap(q)
            assert len(q) >= 0
        q.run_until_empty()
        assert len(q) == 0


class TestRun:
    def test_run_returns_event_count(self):
        q = EventQueue()
        for i in range(5):
            q.schedule(float(i), lambda t: None)
        assert q.run_until_empty() == 5

    def test_max_events_stops_early(self):
        q = EventQueue()
        for i in range(10):
            q.schedule(float(i), lambda t: None)
        assert q.run_until_empty(max_events=4) == 4
        assert len(q) == 6

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None
