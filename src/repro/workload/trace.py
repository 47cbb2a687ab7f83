"""Trace file I/O.

Two formats are supported:

* The library's canonical CSV — header
  ``job_id,arrival_time,duration,cpu,mem,disk`` with times in seconds and
  resource demands as fractions of one server. This is the format all
  examples and benchmarks read and write.
* The Google cluster-usage *task events* table (Reiss, Wilkes &
  Hellerstein, 2011): a headerless CSV whose relevant columns are
  timestamp (microseconds), job ID, event type, and normalized CPU /
  memory / disk requests. :func:`read_google_task_events` pairs SUBMIT
  (type 0) with FINISH (type 4) events per job-ID incarnation to recover
  per-job durations — drop the real trace files in and the rest of the
  library runs unchanged.
"""

from __future__ import annotations

import csv
import heapq
import logging
import math
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.obs import telemetry as obs
from repro.sim.churn import CapacityEvent
from repro.sim.job import Job

logger = logging.getLogger(__name__)

_HEADER = ["job_id", "arrival_time", "duration", "cpu", "mem", "disk"]

#: Google task-events column indices (per the trace format + schema doc).
_G_TIME, _G_JOB_ID, _G_EVENT = 0, 2, 5
_G_CPU, _G_MEM, _G_DISK = 9, 10, 11
_G_SUBMIT, _G_FINISH = 0, 4
_MICROSECONDS = 1e6

#: Google machine-events column indices (per the schema doc): timestamp,
#: machine ID, event type; ADD (0) brings a machine up, REMOVE (1) takes
#: it down, UPDATE (2) changes its capacity (ignored here).
_M_TIME, _M_MACHINE, _M_EVENT = 0, 1, 2
_M_ADD, _M_REMOVE, _M_UPDATE = 0, 1, 2


def write_trace_csv(jobs: Iterable[Job], path: str | Path) -> int:
    """Write jobs in the canonical CSV format; returns the row count.

    Raises
    ------
    ValueError
        If a job carries more than 3 resource dimensions (the canonical
        format holds exactly cpu/mem/disk, so extra dimensions would be
        silently dropped) or any NaN field (NaN round-trips through
        ``float(repr(...))`` but poisons every downstream aggregate).
    """
    path = Path(path)
    count = 0
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for job in jobs:
            if len(job.resources) > 3:
                raise ValueError(
                    f"job {job.job_id}: {len(job.resources)} resource dimensions; "
                    f"the canonical CSV holds exactly {len(_HEADER) - 3} "
                    "(cpu, mem, disk), so a write/read round-trip would lose data"
                )
            fields = [job.arrival_time, job.duration, *job.resources]
            if any(math.isnan(float(v)) for v in fields):
                raise ValueError(f"job {job.job_id}: NaN field cannot be written")
            res = list(job.resources) + [0.0] * (3 - len(job.resources))
            # float() first: repr of numpy scalars is not parseable text.
            writer.writerow(
                [job.job_id, repr(float(job.arrival_time)), repr(float(job.duration))]
                + [repr(float(r)) for r in res]
            )
            count += 1
    return count


def read_trace_csv(path: str | Path) -> list[Job]:
    """Read a canonical trace CSV back into a job list.

    Raises
    ------
    ValueError
        On a malformed header or row.
    """
    path = Path(path)
    tel = obs.get()
    jobs: list[Job] = []
    with tel.span("trace.parse"):
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != _HEADER:
                raise ValueError(f"{path}: unexpected header {header!r}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(_HEADER):
                    raise ValueError(
                        f"{path}:{lineno}: expected {len(_HEADER)} fields"
                    )
                jobs.append(
                    Job(
                        job_id=int(row[0]),
                        arrival_time=float(row[1]),
                        duration=float(row[2]),
                        resources=(float(row[3]), float(row[4]), float(row[5])),
                    )
                )
    tel.counter("trace.jobs_parsed", len(jobs))
    logger.debug("parsed %d jobs from %s", len(jobs), path)
    return jobs


#: A parsed task-events row: (time_s, job_id, event, resources-or-None).
_TaskRow = tuple[float, int, int, "tuple[float, float, float] | None"]


def _parse_task_row(row: list[str]) -> _TaskRow | None:
    """One task-events CSV row as a typed record, or None to skip it."""
    if len(row) <= _G_DISK:
        return None
    try:
        event = int(row[_G_EVENT])
        time_s = float(row[_G_TIME]) / _MICROSECONDS
        job_id = int(row[_G_JOB_ID])
    except (ValueError, IndexError):
        return None
    if event == _G_SUBMIT:
        try:
            res = (
                float(row[_G_CPU]),
                float(row[_G_MEM]),
                float(row[_G_DISK]),
            )
        except ValueError:
            return None
        return (time_s, job_id, event, res)
    if event == _G_FINISH:
        return (time_s, job_id, event, None)
    return None


def _task_file_is_sorted(path: Path) -> bool:
    """Whether a file's rows are already in timestamp order.

    A cheap streaming pre-pass (nothing buffered, only the timestamp
    column converted): the real trace's part files are time-sorted, so
    this is the common case and unlocks O(1) per-file memory in
    :func:`_iter_task_rows`. Rows without a parseable timestamp are
    ignored (the full parse skips them too); noise rows *with*
    timestamps may flag a file unsorted even though its usable rows are
    ordered — that only costs the buffered fallback, never correctness.
    """
    last = -math.inf
    with path.open() as fh:
        # Raw line scan, no CSV machinery: the timestamp is the first
        # column and is never quoted, so splitting at the first comma
        # is exact and several times cheaper than csv.reader.
        for line in fh:
            try:
                time_s = float(line.split(",", 1)[0])
            except ValueError:
                continue
            if time_s < last:
                return False
            last = time_s
    return True


def _iter_task_rows(path: str | Path) -> Iterator[_TaskRow]:
    """Yield one file's usable rows in timestamp order.

    Time-sorted files (the real trace's part files) stream row by row —
    two sequential passes, O(1) memory. A file with out-of-order rows is
    buffered and stably sorted, preserving the pre-streaming tolerance:
    simultaneous rows keep file order, so a same-instant FINISH/SUBMIT
    reuse cycle resolves the way the trace wrote it.
    """
    path = Path(path)
    if _task_file_is_sorted(path):
        with path.open(newline="") as fh:
            for row in csv.reader(fh):
                rec = _parse_task_row(row)
                if rec is not None:
                    yield rec
        return
    rows = []
    with path.open(newline="") as fh:
        for row in csv.reader(fh):
            rec = _parse_task_row(row)
            if rec is not None:
                rows.append(rec)
    rows.sort(key=lambda rec: rec[0])  # stable: ties keep file order
    yield from rows


def read_google_task_events(
    paths: Sequence[str | Path],
    min_duration: float = 60.0,
    max_duration: float = 7200.0,
) -> list[Job]:
    """Extract jobs from Google cluster-usage task-events CSV files.

    Pairs SUBMIT with FINISH events per job-ID *incarnation*: rows are
    processed in timestamp order (files and rows may arrive out of
    order), each FINISH closes the currently open SUBMIT of its job ID,
    and the ID then becomes available again — Google traces recycle job
    IDs across RESUBMIT cycles, and pairing first-SUBMIT with
    first-FINISH would fabricate durations spanning several
    incarnations. Keeps jobs whose duration falls in
    ``[min_duration, max_duration]`` (the paper keeps 1 min–2 h), and
    returns them sorted by arrival time with arrival times re-based to
    zero. Rows with missing resource requests are skipped.

    Memory: files are consumed through a streaming
    :func:`heapq.merge` over per-file iterators. Time-sorted part files
    (the real trace's are) stream with O(1) row memory per file — peak
    memory is then proportional to the *job* count, not the event count
    — while a file with out-of-order rows is buffered and sorted on its
    own (see :func:`_iter_task_rows`), bounding the buffer at one file
    instead of the whole file set. The merged order is identical to the
    previous buffer-everything-and-stable-sort implementation: per-file
    order is preserved and ``heapq.merge`` resolves equal timestamps in
    argument (file) order.
    """
    Res = tuple[float, float, float]
    tel = obs.get()
    with tel.span("trace.parse"):
        merged = heapq.merge(
            *(_iter_task_rows(path) for path in paths), key=lambda rec: rec[0]
        )
        pending: dict[int, tuple[float, Res]] = {}
        records = []
        n_rows = 0
        for time_s, job_id, event, res in merged:
            n_rows += 1
            if event == _G_SUBMIT:
                # Duplicate SUBMITs inside one incarnation keep the first.
                if job_id not in pending:
                    pending[job_id] = (time_s, res)  # type: ignore[assignment]
                continue
            opened = pending.pop(job_id, None)  # FINISH: reset the incarnation
            if opened is None:
                continue  # FINISH with no open SUBMIT (trace window cut it off)
            t_submit, submit_res = opened
            duration = time_s - t_submit
            if not min_duration <= duration <= max_duration:
                continue
            if any(r <= 0.0 or r > 1.0 for r in submit_res):
                continue
            records.append((t_submit, duration, submit_res))

        records.sort(key=lambda rec: rec[0])
    tel.counter("trace.rows_scanned", n_rows)
    tel.counter("trace.jobs_parsed", len(records))
    logger.debug(
        "paired %d jobs from %d usable task-event rows across %d files",
        len(records),
        n_rows,
        len(paths),
    )
    if not records:
        return []
    t0 = records[0][0]
    return [
        Job(job_id=i, arrival_time=t - t0, duration=d, resources=res)
        for i, (t, d, res) in enumerate(records)
    ]


def read_google_machine_events(
    paths: Sequence[str | Path],
    num_servers: int,
    min_duration: float = 1.0,
    open_duration: float | None = None,
) -> tuple[CapacityEvent, ...]:
    """Parse Google *machine events* tables into a capacity-churn schedule.

    The machine-events table records the physical fleet's lifecycle:
    ADD (0) brings a machine up, REMOVE (1) takes it down (failure or
    maintenance), UPDATE (2) changes its capacity in place. This pairs
    each REMOVE with the machine's next ADD and emits one full drain
    (:class:`~repro.sim.churn.CapacityEvent` with ``fraction=0``) per
    down window, so replay scenarios churn capacity exactly when the
    recorded cluster did.

    Machines map onto the simulated fleet round-robin in first-seen
    order (the recording typically has far more machines than the
    simulated cluster; overlapping drains on one slot compose per
    :func:`~repro.sim.churn.schedule_capacity_events`' last-restore-wins
    rule). Times are seconds, re-based so the first event is t = 0 —
    matching how task-events arrivals re-base.

    Parameters
    ----------
    paths:
        Machine-events CSV files (headerless, timestamp µs / machine ID
        / event type in the first three columns). Malformed rows and
        UPDATE events are skipped.
    num_servers:
        Size of the simulated fleet the machine IDs map onto.
    min_duration:
        Drop down windows shorter than this many seconds (sub-second
        remove/re-add flaps churn the DPM state for nothing).
    open_duration:
        Close REMOVEs that never see a matching ADD at this absolute
        re-based time (e.g. the replay horizon — the trace window ended
        with the machine still down); ``None`` drops them. Open drains
        starting at or after this time are dropped either way.

    Raises
    ------
    ValueError
        If ``num_servers`` is not positive.
    """
    if num_servers < 1:
        raise ValueError(f"num_servers must be positive, got {num_servers}")
    rows: list[tuple[float, int, int]] = []
    for path in paths:
        with Path(path).open(newline="") as fh:
            for row in csv.reader(fh):
                if len(row) <= _M_EVENT:
                    continue
                try:
                    time_s = float(row[_M_TIME]) / _MICROSECONDS
                    machine = int(row[_M_MACHINE])
                    event = int(row[_M_EVENT])
                except (ValueError, IndexError):
                    continue
                if event in (_M_ADD, _M_REMOVE):
                    rows.append((time_s, machine, event))
    if not rows:
        return ()
    rows.sort(key=lambda rec: rec[0])  # stable: ties keep file order
    t0 = rows[0][0]

    slots: dict[int, int] = {}  # machine ID -> simulated server index
    down_since: dict[int, float] = {}  # machine ID -> drain start (re-based)
    events: list[CapacityEvent] = []

    def emit(machine: int, start: float, end: float) -> None:
        duration = end - start
        if duration < min_duration:
            return
        events.append(
            CapacityEvent(
                time=start,
                server_id=slots[machine],
                duration=duration,
                fraction=0.0,
            )
        )

    for time_s, machine, event in rows:
        t = time_s - t0
        if machine not in slots:
            slots[machine] = len(slots) % num_servers
        if event == _M_REMOVE:
            down_since.setdefault(machine, t)
        else:  # ADD closes an open drain; an initial ADD just registers
            start = down_since.pop(machine, None)
            if start is not None:
                emit(machine, start, t)
    if open_duration is not None:
        for machine, start in down_since.items():
            emit(machine, start, open_duration)
    events.sort(key=lambda e: (e.time, e.server_id))
    return tuple(events)
