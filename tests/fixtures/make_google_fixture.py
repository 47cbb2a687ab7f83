"""Regenerate ``src/repro/scenarios/google_task_events_small.csv``, the
fixture the ``google-replay`` builtin replays (package data).

A synthetic stand-in for one Google cluster-usage *task events* part
file (Reiss, Wilkes & Hellerstein, 2011): headerless rows whose relevant
columns are timestamp (µs), job ID (col 2), event type (col 5) and
normalized CPU/mem/disk requests (cols 9-11). Deliberately messy the way
the real trace is:

* job-ID reuse — several IDs run two SUBMIT/FINISH incarnations;
* out-of-order rows — the file is not fully timestamp-sorted;
* noise — SCHEDULE/EVICT events, rows with missing resources, a
  malformed row, and one pair whose duration falls outside [1 min, 2 h].

Run ``python tests/fixtures/make_google_fixture.py`` from the repo root
to rewrite the CSV (deterministic: fixed seed).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

OUT = (
    Path(__file__).resolve().parents[2]
    / "src"
    / "repro"
    / "scenarios"
    / "google_task_events_small.csv"
)

#: Jobs the reader should extract (keep in sync with tests).
N_EXPECTED = 120


def _row(time_us: int, job_id: int, event: int, res=None) -> str:
    cpu, mem, disk = ("", "", "") if res is None else (
        f"{res[0]:.5f}",
        f"{res[1]:.5f}",
        f"{res[2]:.5f}",
    )
    return (
        f"{time_us},,{job_id},0,machine-{job_id % 40},{event},"
        f"user,cls,0,{cpu},{mem},{disk},0"
    )


def main() -> None:
    rng = np.random.default_rng(20260727)
    rows: list[tuple[int, str]] = []
    next_id = 5_000_000_000

    def emit_job(t_submit_s: float, duration_s: float, job_id: int) -> None:
        res = (
            float(rng.uniform(0.05, 0.45)),
            float(rng.uniform(0.05, 0.35)),
            float(rng.uniform(0.02, 0.25)),
        )
        t0 = int(t_submit_s * 1e6)
        t1 = int((t_submit_s + duration_s) * 1e6)
        rows.append((t0, _row(t0, job_id, 0, res)))
        # Realistic lifecycle noise between submit and finish.
        if rng.random() < 0.4:
            ts = int((t_submit_s + duration_s * 0.1) * 1e6)
            rows.append((ts, _row(ts, job_id, 1, res)))  # SCHEDULE
        rows.append((t1, _row(t1, job_id, 4, res)))

    # 100 plain jobs over a ~4 h window, diurnal-ish arrival density.
    span = 4 * 3600.0
    arrivals = np.sort(rng.uniform(0.0, span, size=100))
    for t in arrivals:
        emit_job(float(t), float(rng.uniform(90.0, 2800.0)), next_id)
        next_id += 1

    # 10 IDs reused for two incarnations each (20 more valid jobs).
    for _ in range(10):
        job_id = next_id
        next_id += 1
        t_a = float(rng.uniform(0.0, span / 2))
        d_a = float(rng.uniform(120.0, 1200.0))
        emit_job(t_a, d_a, job_id)
        t_b = t_a + d_a + float(rng.uniform(300.0, 3600.0))
        emit_job(t_b, float(rng.uniform(120.0, 1200.0)), job_id)

    # Noise the reader must reject: a too-short job, an unfinished job,
    # a submit with missing resources, and a malformed row.
    emit_job(float(rng.uniform(0.0, span)), 12.0, next_id)  # < 60 s
    t = int(rng.uniform(0.0, span) * 1e6)
    rows.append((t, _row(t, next_id + 1, 0, (0.2, 0.2, 0.1))))  # no FINISH
    t = int(rng.uniform(0.0, span) * 1e6)
    rows.append((t, _row(t, next_id + 2, 0, None)))  # missing resources
    rows.append((t + 1, "not,a,valid,row"))

    # Mostly time-sorted, with a shuffled slice (out-of-order region).
    rows.sort(key=lambda r: r[0])
    mid = len(rows) // 2
    chunk = rows[mid : mid + 12]
    rng.shuffle(chunk)
    rows[mid : mid + 12] = chunk

    OUT.write_text("\n".join(text for _, text in rows) + "\n")
    print(f"wrote {len(rows)} rows to {OUT}")


if __name__ == "__main__":
    main()
