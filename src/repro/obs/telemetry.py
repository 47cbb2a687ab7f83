"""Run telemetry: spans, counters, and gauges.

The measurement substrate behind ``--profile`` and ``repro obs report``:
a :class:`Telemetry` instance aggregates

* **spans** — named wall-clock intervals, each timed by a
  :class:`Phase`. Spans nest: each span's *self* time excludes the time
  spent in child spans, so a sorted self-time breakdown attributes every
  microsecond of a run to exactly one phase (pop / route / dispatch /
  settle / ...), never twice.
* **counters** — monotone event counts (jobs arrived, broker decisions,
  checkpoint hits/misses). The report divides each by the run's wall
  time for a per-second rate.
* **gauges** — point-in-time samples of a fluctuating quantity
  (:class:`~repro.sim.events.EventQueue` depth, per-site queue lengths),
  summarized as last/min/max/mean.

A one-off interval is ``with tel.span(name):`` — a fresh :class:`Phase`
used as a context manager. Per-event hot loops make one :class:`Phase`
per run instead and time each interval with ``begin()`` / ``end()``,
folding it into the span table once at the end. A phase an exception
leaves open is dropped when the enclosing span exits.

:func:`capture` scopes an active :class:`Telemetry` around a block, and
:func:`active` returns it (or ``None``). **The disabled path is a
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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

#: Version of the snapshot payload layout (``telemetry.json`` schema).
#: v2: no ``rates`` block (the report derives per-second rates from the
#: counters); a v1 snapshot's ``rates`` is ignored on load and merge.
TELEMETRY_SCHEMA = 2


@dataclass(slots=True)
class SpanStat:
    """Aggregate of every completed interval of one span name."""

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


class Phase:
    """Timer for one named span: the one interval timer of this module.

    :meth:`Telemetry.span` returns a fresh phase used as a context
    manager, which opens, closes and folds one interval. A fresh phase
    per interval costs as much as a cheap broker's whole event, so a
    hot loop makes one per run (``Phase(tel, name)``), times each
    interval with :meth:`begin` / :meth:`end`, and merges the tallies
    into the span table once with :meth:`fold`. While open a phase
    is the innermost stack frame, so spans opened inside it (a DRL
    broker's ``qnet.train_step``) count as its children, and :meth:`end`
    charges its duration to the enclosing frame.
    """

    __slots__ = (
        "name",
        "calls",
        "total_s",
        "max_s",
        "_child_s",
        "_start",
        "_tel",
        "_depth",
    )

    def __init__(self, tel: "Telemetry", name: str) -> None:
        self.name = name
        self._tel = tel
        self.calls = 0
        self.total_s = self.max_s = self._child_s = 0.0

    def __enter__(self) -> "Phase":
        self._depth = len(self._tel._stack)
        self.begin()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Drop any phase an exception left open above this one.
        del self._tel._stack[self._depth + 1 :]
        self.end()
        self.fold()
        return False

    def begin(self) -> None:
        """Open one interval (push this phase as the innermost frame)."""
        tel = self._tel
        tel._stack.append(self)
        self._start = tel.clock()

    def end(self) -> None:
        """Close the interval opened by :meth:`begin`."""
        tel = self._tel
        elapsed = tel.clock() - self._start
        stack = tel._stack
        stack.pop()
        if stack:
            stack[-1]._child_s += elapsed
        self.calls += 1
        self.total_s += elapsed
        if elapsed > self.max_s:
            self.max_s = elapsed

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

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: dict[str, SpanStat] = {}
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, GaugeStat] = {}
        self._stack: list[Phase] = []
        self._t0 = clock()

    # -- spans ---------------------------------------------------------

    def span(self, name: str) -> Phase:
        """Context manager timing one named interval (nestable)."""
        return Phase(self, name)

    def fold(
        self,
        name: str,
        calls: int,
        total_s: float,
        self_s: float,
        max_s: float,
    ) -> None:
        """Merge externally accumulated span aggregates in one step.

        Behind :meth:`Phase.fold`: a phase tallies calls and durations
        per interval and flushes here. No parent child-time is charged:
        the phase already did that per call (or in bulk, when every
        batched interval shares one parent span).
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

    # -- counters / gauges ---------------------------------------------

    def counter(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a monotone counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Sample a point-in-time value of a fluctuating quantity."""
        stat = self.gauges.get(name)
        if stat is None:
            stat = self.gauges[name] = GaugeStat()
        stat.sample(float(value))

    # -- export --------------------------------------------------------

    def snapshot(self) -> dict:
        """The JSON-able ``RunTelemetry`` payload (``telemetry.json``)."""
        return {
            "schema": TELEMETRY_SCHEMA,
            "wall_s": self.clock() - self._t0,
            "spans": {
                name: stat.as_dict() for name, stat in sorted(self.spans.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "gauges": {
                name: stat.as_dict() for name, stat in sorted(self.gauges.items())
            },
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
    """The disabled path: every probe is a no-op.

    A single module-level instance (:data:`NULL`) stands in wherever
    code wants an unconditional ``get().span(...)`` or
    ``get().counter(...)`` call without branching; hot loops read
    :func:`active` once and skip their :class:`Phase` calls when it is
    ``None``.
    """

    __slots__ = ()

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def counter(self, name: str, n: int = 1) -> None:
        pass


#: The module-level no-op singleton — telemetry's disabled state.
NULL = NullTelemetry()

_active: Telemetry | None = None


def active() -> Telemetry | None:
    """The enabled collector, or ``None`` (the hot-path branch check)."""
    return _active


def get() -> Telemetry | NullTelemetry:
    """The enabled collector, or the :data:`NULL` no-op singleton."""
    return _active if _active is not None else NULL


@contextmanager
def capture(telemetry: Telemetry | None = None) -> Iterator[Telemetry]:
    """Scope an active collector around a block, restoring the previous.

    Nested captures stack: the inner scope's collector wins for its
    duration and the outer one is restored afterwards (the outer scope
    simply does not observe the inner block).
    """
    global _active
    previous = _active
    tel = _active = telemetry if telemetry is not None else Telemetry()
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
    gauges keep global min/max with an n-weighted mean. ``wall_s`` is
    the *sum* of the member runs' wall clocks — cells may have run
    concurrently, so it reads as aggregate busy time, not sweep
    duration, and the report's per-second counter rates are over that
    busy time. ``None`` entries (cells run without profiling) are
    skipped.
    """
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    gauges: dict[str, dict] = {}
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
    return {
        "schema": TELEMETRY_SCHEMA,
        "n_runs": n_runs,
        "wall_s": wall_s,
        "spans": dict(sorted(spans.items())),
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
    }
