#!/usr/bin/env python3
"""A Google-trace-style experiment, end to end.

Reproduces the paper's workflow at reduced scale:

1. generate a synthetic Google-like workload segment (the paper splits
   the 2011 cluster trace into ~100 k-job week segments),
2. characterize it (arrival burstiness, durations, offered load),
3. write/read it through the canonical trace CSV format (drop a real
   extracted trace in the same format to use it instead),
4. regenerate a small Table I and the headline percentage claims.

Run:  python examples/google_like_cluster.py [n_jobs]
"""

import sys
import tempfile
from pathlib import Path

from repro.harness.claims import evaluate_claims
from repro.harness.table1 import render_table1, run_table1, table1_rows
from repro.workload.segments import split_segments
from repro.workload.stats import characterize
from repro.workload.synthetic import SyntheticTraceConfig, generate_trace
from repro.workload.trace import read_trace_csv, write_trace_csv


def main() -> None:
    n_jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 2000

    # 1. Generate a week-like segment (rate scaled to the job count).
    base = SyntheticTraceConfig()
    config = SyntheticTraceConfig(n_jobs=n_jobs, horizon=n_jobs / base.base_rate)
    jobs = generate_trace(config, seed=42)

    # 2. Characterize.
    print("=== workload characterization ===")
    print(characterize(jobs).summary())

    # 3. Round-trip through the canonical CSV trace format.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "segment.csv"
        write_trace_csv(jobs, path)
        jobs = read_trace_csv(path)
    print(f"\ntrace CSV round-trip ok ({len(jobs)} jobs)")

    # Segments, as the paper splits the month-long trace.
    segments = split_segments(jobs, segment_size=max(n_jobs // 4, 100))
    print(f"split into {len(segments)} segments of ~{len(segments[0])} jobs")

    # 4. Small-scale Table I on M = 30 (pass n_jobs=95000 for full scale).
    print("\n=== Table I (reduced scale) ===")
    rows = table1_rows(run_table1(n_jobs=n_jobs, cluster_sizes=(30,), seed=42))
    print(render_table1(rows))
    print()
    print(evaluate_claims(rows, num_servers=30).summary())


if __name__ == "__main__":
    main()
