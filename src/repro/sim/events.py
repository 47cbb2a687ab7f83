"""Continuous-time event queue.

A simple binary-heap priority queue of ``(time, sequence, event)`` tuples
where the unique sequence number breaks ties deterministically in
insertion order, so the heap never compares two events. Events carry a
callback; cancellation is lazy (a cancelled event is popped and
skipped), which keeps DPM timeout handling O(log n). A live-event
counter is maintained on schedule/cancel/pop so ``len(queue)`` is O(1)
instead of a scan over a heap full of cancelled tombstones.
"""

from __future__ import annotations

import heapq
from typing import Callable


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "callback", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        callback: Callable[[float], None],
        queue: "EventQueue | None" = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"ScheduledEvent(t={self.time:.3f}, callback={name}{state})"


class EventQueue:
    """Time-ordered queue of :class:`ScheduledEvent`."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = 0
        self._live = 0  # scheduled minus (cancelled + popped): O(1) len()
        self.now = 0.0

    def __len__(self) -> int:
        return self._live

    def schedule(
        self, time: float, callback: Callable[[float], None]
    ) -> ScheduledEvent:
        """Schedule ``callback(time)`` at absolute simulated ``time``.

        Raises
        ------
        ValueError
            If ``time`` is in the simulated past or NaN (a NaN compares
            false with everything and would misorder the heap).
        """
        if not time >= self.now:
            raise ValueError(f"cannot schedule at {time} before now ({self.now})")
        event = ScheduledEvent(time, callback, queue=self)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        self._live += 1
        return event

    def schedule_in(
        self, delay: float, callback: Callable[[float], None]
    ) -> ScheduledEvent:
        """Schedule ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self.now + delay, callback)

    def pop(self) -> ScheduledEvent | None:
        """Pop and return the next live event, advancing ``now``.

        Returns None when no live events remain.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if event.cancelled:
                continue
            if event.time < self.now:
                # The heappop above already removed the event; settle the
                # live counter before surfacing the corruption, or a
                # caller that catches this sees len() overcount forever
                # (a `while len(queue)` drain would then spin on pops
                # returning None).
                self._live -= 1
                event._queue = None
                raise RuntimeError(
                    f"event {event!r} is in the past (now={self.now})"
                )
            self._live -= 1
            event._queue = None  # no longer queued: a late cancel() is a no-op
            self.now = event.time
            return event
        return None

    def clear(self) -> None:
        """Drop every queued event and each one's callback.

        For a run that stopped before the queue drained, or an engine
        dropped unrun: a callback holds a server, which holds this queue
        and, mid-run, the handle of its pending timeout or power
        transition, so dropping the callbacks leaves no reference cycle.
        A late ``cancel()`` on a dropped handle is a no-op.
        """
        for _, _, event in self._heap:
            event.callback = None
            event._queue = None
        self._heap.clear()
        self._live = 0

    def run_until_empty(self, max_events: int | None = None) -> int:
        """Drain the queue, invoking callbacks in time order.

        Returns the number of events executed. ``max_events`` is a safety
        valve against runaway schedules.
        """
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                return executed
            event = self.pop()
            if event is None:
                return executed
            event.callback(event.time)
            executed += 1
