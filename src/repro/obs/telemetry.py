"""Run telemetry: spans, counters, gauges, and rolling rates.

The measurement substrate behind ``--profile`` and ``repro obs report``:
a :class:`Telemetry` instance aggregates

* **spans** — named wall-clock intervals (:meth:`Telemetry.span` as a
  context manager, or :meth:`Telemetry.record` for pre-measured leaf
  durations). Spans nest: each span's *self* time excludes the time
  spent in child spans, so a sorted self-time breakdown attributes every
  microsecond of a run to exactly one phase (pop / route / dispatch /
  settle / ...), never twice.
* **counters** — monotone event counts (jobs arrived, broker decisions,
  checkpoint hits/misses).
* **gauges** — point-in-time samples of a fluctuating quantity
  (:class:`~repro.sim.events.EventQueue` depth, per-site queue lengths),
  summarized as last/min/max/mean.
* **marks** — timestamped occurrences feeding rolling-window rates
  (jobs/s, events/s): the groundwork for the streaming monitor's live
  throughput readout.

Per-event hot loops time their phases with a reusable :class:`Phase`
(``begin()`` / ``end()``, folded into the span table once per run) and
feed marks through a :class:`MarkSink` with a clock reading they already
took. A phase an exception leaves open is dropped when the enclosing
span exits.

Enabling is process-global and explicit: :func:`enable` installs an
active :class:`Telemetry`, :func:`capture` scopes one around a block,
and :func:`active` returns it (or ``None``). **The disabled path is a
module-level no-op singleton** — :data:`NULL`, returned by :func:`get`
when nothing is active — and the hot loops read :func:`active` once per
run and skip their phase calls when it is ``None``. Telemetry never
touches simulation state, so enabled and disabled runs produce
bit-identical results (asserted by the parity tests); the only cost of
enabling is wall-clock, bounded by the overhead guard test at <10% on
the federation hot path.

All times come from :func:`time.perf_counter` (monotonic); a different
clock may be injected for deterministic tests.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

#: Version of the snapshot payload layout (``telemetry.json`` schema).
TELEMETRY_SCHEMA = 1

#: Default rolling-rate window in seconds (see :meth:`Telemetry.rate`).
DEFAULT_RATE_WINDOW_S = 5.0

#: Timestamps retained per mark name; old marks age out of the window
#: anyway, so a bounded deque keeps per-event cost O(1) and memory flat.
_MARK_CAPACITY = 4096


@dataclass(slots=True)
class SpanStat:
    """Aggregate of every completed span (or :meth:`record`) of one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "max_s": self.max_s,
        }


@dataclass(slots=True)
class GaugeStat:
    """Summary of point-in-time samples of one gauge."""

    last: float = 0.0
    min: float = 0.0
    max: float = 0.0
    sum: float = 0.0
    n: int = 0

    def sample(self, value: float) -> None:
        if self.n == 0:
            self.min = self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.last = value
        self.sum += value
        self.n += 1

    def as_dict(self) -> dict:
        return {
            "last": self.last,
            "min": self.min,
            "max": self.max,
            "mean": self.sum / self.n if self.n else 0.0,
            "n": self.n,
        }


class _Span:
    """One live span on the stack; created by :meth:`Telemetry.span`."""

    __slots__ = ("_tel", "_name", "_start", "_child_s", "_depth")

    def __init__(self, tel: "Telemetry", name: str) -> None:
        self._tel = tel
        self._name = name

    def __enter__(self) -> "_Span":
        self._child_s = 0.0
        stack = self._tel._stack
        self._depth = len(stack)
        stack.append(self)
        self._start = self._tel.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tel = self._tel
        elapsed = tel.clock() - self._start
        # Drop this frame and any phase an exception left open above it.
        del tel._stack[self._depth :]
        stat = tel.spans.get(self._name)
        if stat is None:
            stat = tel.spans[self._name] = SpanStat()
        stat.calls += 1
        stat.total_s += elapsed
        stat.self_s += elapsed - self._child_s
        if elapsed > stat.max_s:
            stat.max_s = elapsed
        if tel._stack:
            tel._stack[-1]._child_s += elapsed
        return False


class Phase:
    """Reusable timer for one named phase of a hot loop.

    :meth:`Telemetry.span` allocates a context manager per interval,
    which costs as much as a cheap broker's whole event. A phase is
    made once per run (``Phase(tel, name)``), timed around each
    interval with :meth:`begin` / :meth:`end`, and merged into the span
    table once with :meth:`fold`. It attributes exactly like a span:
    while open it is the innermost stack frame, so spans opened inside
    it (a DRL broker's ``qnet.train_step``) count as its children, and
    :meth:`end` charges its duration to the enclosing frame.
    """

    __slots__ = ("name", "calls", "total_s", "max_s", "_child_s", "_start", "_tel")

    def __init__(self, tel: "Telemetry", name: str) -> None:
        self.name = name
        self._tel = tel
        self.calls = 0
        self.total_s = self.max_s = self._child_s = 0.0

    def begin(self) -> None:
        """Open one interval (push this phase as the innermost frame)."""
        tel = self._tel
        tel._stack.append(self)
        self._start = tel.clock()

    def end(self) -> float:
        """Close the interval opened by :meth:`begin`; returns its end time."""
        tel = self._tel
        now = tel.clock()
        elapsed = now - self._start
        stack = tel._stack
        stack.pop()
        if stack:
            stack[-1]._child_s += elapsed
        self.calls += 1
        self.total_s += elapsed
        if elapsed > self.max_s:
            self.max_s = elapsed
        return now

    def add(self, elapsed_s: float, calls: int = 1) -> None:
        """Account ``calls`` childless intervals timed in bulk elsewhere.

        Charged to the enclosing frame like :meth:`end`; ``max_s`` is
        left alone, since a bulk total says nothing about its longest
        member.
        """
        stack = self._tel._stack
        if stack:
            stack[-1]._child_s += elapsed_s
        self.calls += calls
        self.total_s += elapsed_s

    def fold(self) -> None:
        """Merge the tallies into the collector's span table and reset."""
        total = self.total_s
        self._tel.fold(self.name, self.calls, total, total - self._child_s, self.max_s)
        self.calls = 0
        self.total_s = self.max_s = self._child_s = 0.0


class MarkSink:
    """Timestamps of one mark name: a bounded recent window and a count."""

    __slots__ = ("times", "count")

    def __init__(self) -> None:
        self.times: deque = deque(maxlen=_MARK_CAPACITY)
        self.count = 0

    def add(self, t: float) -> None:
        """Record one occurrence at clock reading ``t``."""
        self.times.append(t)
        self.count += 1


class Telemetry:
    """Aggregating collector for one run (or one capture scope).

    Parameters
    ----------
    clock:
        Monotonic time source; :func:`time.perf_counter` by default.
        Injectable so invariant tests can drive deterministic times.
        Kept as the public :attr:`clock` attribute so hot loops can
        take their own readings on the collector's timeline.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: dict[str, SpanStat] = {}
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, GaugeStat] = {}
        self._marks: dict[str, MarkSink] = {}
        self._stack: list[_Span | Phase] = []
        self._t0 = clock()

    # -- spans ---------------------------------------------------------

    def span(self, name: str) -> _Span:
        """Context manager timing one named interval (nestable)."""
        return _Span(self, name)

    def record(self, name: str, elapsed_s: float) -> None:
        """Fold a pre-measured leaf duration into the span aggregates.

        For call sites where wrapping a ~microsecond operation in a
        context manager would cost as much as the operation itself (the
        event-loop ``pop`` phase): time it inline with the telemetry
        clock and record the result. Attributed exactly like a childless
        span — it charges the enclosing span's child time, so self-time
        accounting stays exact.
        """
        stat = self.spans.get(name)
        if stat is None:
            stat = self.spans[name] = SpanStat()
        stat.calls += 1
        stat.total_s += elapsed_s
        stat.self_s += elapsed_s
        if elapsed_s > stat.max_s:
            stat.max_s = elapsed_s
        if self._stack:
            self._stack[-1]._child_s += elapsed_s

    def fold(
        self,
        name: str,
        calls: int,
        total_s: float,
        self_s: float,
        max_s: float,
    ) -> None:
        """Merge externally accumulated span aggregates in one step.

        The batch counterpart of :meth:`record`, behind
        :meth:`Phase.fold`: a hot loop tallies calls and durations per
        interval and flushes once per run. Unlike :meth:`record`, no
        parent child-time is charged here: the caller already did that
        per call (or in bulk, when every batched interval shares one
        parent span).
        """
        if calls <= 0:
            return
        stat = self.spans.get(name)
        if stat is None:
            stat = self.spans[name] = SpanStat()
        stat.calls += calls
        stat.total_s += total_s
        stat.self_s += self_s
        if max_s > stat.max_s:
            stat.max_s = max_s

    # -- counters / gauges / marks ------------------------------------

    def counter(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a monotone counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Sample a point-in-time value of a fluctuating quantity."""
        stat = self.gauges.get(name)
        if stat is None:
            stat = self.gauges[name] = GaugeStat()
        stat.sample(float(value))

    def mark_sink(self, name: str) -> MarkSink:
        """The :class:`MarkSink` behind mark ``name`` (created on first use)."""
        sink = self._marks.get(name)
        if sink is None:
            sink = self._marks[name] = MarkSink()
        return sink

    def mark(self, name: str) -> None:
        """Timestamp one occurrence for the rolling-rate estimators."""
        self.mark_sink(name).add(self.clock())

    def rate(self, name: str, window_s: float = DEFAULT_RATE_WINDOW_S) -> float:
        """Occurrences per second over the trailing ``window_s`` seconds.

        The window is clipped to the telemetry's own lifetime, so a run
        shorter than the window still reports an honest rate; an unknown
        mark rates 0.0.
        """
        if window_s <= 0.0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        sink = self._marks.get(name)
        if sink is None or not sink.times:
            return 0.0
        now = self.clock()
        effective = min(window_s, now - self._t0)
        if effective <= 0.0:
            return 0.0
        cutoff = now - effective
        recent = sum(1 for t in sink.times if t >= cutoff)
        return recent / effective

    # -- export --------------------------------------------------------

    def elapsed_s(self) -> float:
        """Seconds since this collector was created."""
        return self.clock() - self._t0

    def snapshot(self, rate_window_s: float = DEFAULT_RATE_WINDOW_S) -> dict:
        """The JSON-able ``RunTelemetry`` payload (``telemetry.json``)."""
        elapsed = self.elapsed_s()
        rates = {}
        for name, sink in sorted(self._marks.items()):
            if not sink.count:  # a sink made but never fed
                continue
            rates[name] = {
                "count": sink.count,
                "per_s": sink.count / elapsed if elapsed > 0.0 else 0.0,
                "window_s": rate_window_s,
                "window_per_s": self.rate(name, rate_window_s),
            }
        return {
            "schema": TELEMETRY_SCHEMA,
            "wall_s": elapsed,
            "spans": {
                name: stat.as_dict() for name, stat in sorted(self.spans.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "gauges": {
                name: stat.as_dict() for name, stat in sorted(self.gauges.items())
            },
            "rates": rates,
        }


class _NullSpan:
    """Reusable do-nothing context manager (one shared instance)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled path: every probe is a no-op, every read is empty.

    A single module-level instance (:data:`NULL`) stands in wherever
    code wants an unconditional ``get().span(...)`` call without
    branching; hot loops read :func:`active` once and skip their
    :class:`Phase` calls when it is ``None``.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def record(self, name: str, elapsed_s: float) -> None:
        pass

    def counter(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def mark(self, name: str) -> None:
        pass

    def rate(self, name: str, window_s: float = DEFAULT_RATE_WINDOW_S) -> float:
        return 0.0

    def elapsed_s(self) -> float:
        return 0.0

    def snapshot(self, rate_window_s: float = DEFAULT_RATE_WINDOW_S) -> None:
        return None


#: The module-level no-op singleton — telemetry's disabled state.
NULL = NullTelemetry()

_active: Telemetry | None = None


def active() -> Telemetry | None:
    """The enabled collector, or ``None`` (the hot-path branch check)."""
    return _active


def get() -> Telemetry | NullTelemetry:
    """The enabled collector, or the :data:`NULL` no-op singleton."""
    return _active if _active is not None else NULL


def enabled() -> bool:
    return _active is not None


def enable(telemetry: Telemetry | None = None) -> Telemetry:
    """Install (and return) the process-global active collector."""
    global _active
    _active = telemetry if telemetry is not None else Telemetry()
    return _active


def disable() -> Telemetry | None:
    """Deactivate telemetry; returns the collector that was active."""
    global _active
    previous = _active
    _active = None
    return previous


@contextmanager
def capture(telemetry: Telemetry | None = None) -> Iterator[Telemetry]:
    """Scope an active collector around a block, restoring the previous.

    Nested captures stack: the inner scope's collector wins for its
    duration and the outer one is restored afterwards (the outer scope
    simply does not observe the inner block).
    """
    global _active
    previous = _active
    tel = enable(telemetry)
    try:
        yield tel
    finally:
        _active = previous


# ----------------------------------------------------------------------
# Roll-up across runs (sweep cells)
# ----------------------------------------------------------------------


def merge_snapshots(snapshots: Iterable[dict | None]) -> dict:
    """Combine per-run snapshots into one sweep-level aggregate.

    Span calls/total/self sum (``max_s`` takes the max); counters sum;
    gauges keep global min/max with an n-weighted mean; mark counts sum.
    ``wall_s`` is the *sum* of the member runs' wall clocks — cells may
    have run concurrently, so it reads as aggregate busy time, not sweep
    duration — and the merged rates are counts over that busy time
    (window rates are per-run quantities and do not survive a merge).
    ``None`` entries (cells run without profiling) are skipped.
    """
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    gauges: dict[str, dict] = {}
    rate_counts: dict[str, int] = {}
    wall_s = 0.0
    n_runs = 0
    for snap in snapshots:
        if snap is None:
            continue
        n_runs += 1
        wall_s += snap.get("wall_s", 0.0)
        for name, stat in snap.get("spans", {}).items():
            agg = spans.get(name)
            if agg is None:
                spans[name] = dict(stat)
            else:
                agg["calls"] += stat["calls"]
                agg["total_s"] += stat["total_s"]
                agg["self_s"] += stat["self_s"]
                agg["max_s"] = max(agg["max_s"], stat["max_s"])
        for name, count in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + count
        for name, stat in snap.get("gauges", {}).items():
            agg = gauges.get(name)
            if agg is None:
                gauges[name] = dict(stat)
            else:
                total = agg["n"] + stat["n"]
                if total:
                    agg["mean"] = (
                        agg["mean"] * agg["n"] + stat["mean"] * stat["n"]
                    ) / total
                agg["min"] = min(agg["min"], stat["min"])
                agg["max"] = max(agg["max"], stat["max"])
                agg["last"] = stat["last"]
                agg["n"] = total
        for name, stat in snap.get("rates", {}).items():
            rate_counts[name] = rate_counts.get(name, 0) + stat.get("count", 0)
    rates = {
        name: {
            "count": count,
            "per_s": count / wall_s if wall_s > 0.0 else 0.0,
        }
        for name, count in sorted(rate_counts.items())
    }
    return {
        "schema": TELEMETRY_SCHEMA,
        "n_runs": n_runs,
        "wall_s": wall_s,
        "spans": dict(sorted(spans.items())),
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "rates": rates,
    }
