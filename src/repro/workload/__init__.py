"""Workload substrate: traces, synthetic generation, and characterization.

The paper drives its evaluation with jobs extracted from the 2011 Google
cluster-usage traces: ``(arrival time, duration, cpu, mem, disk)`` tuples
with durations clipped to [1 min, 2 h], sorted by arrival time, split into
~100 k-job segments each representing one week of work for an M-machine
cluster.

The real trace is not redistributable, so this package provides both a
reader for trace CSVs (:mod:`repro.workload.trace`) and a synthetic
generator (:mod:`repro.workload.synthetic`) that reproduces the statistics
the simulation actually consumes.
"""

from repro.workload.mixtures import (
    correlated_traces,
    flash_crowd_jobs,
    generate_correlated_mixture,
    generate_mixture,
    merge_traces,
)
from repro.workload.segments import rebase, split_segments
from repro.workload.stats import WorkloadStats, characterize
from repro.workload.synthetic import SyntheticTraceConfig, generate_trace
from repro.workload.trace import (
    read_trace_csv,
    read_google_task_events,
    write_trace_csv,
)

__all__ = [
    "correlated_traces",
    "flash_crowd_jobs",
    "generate_correlated_mixture",
    "generate_mixture",
    "merge_traces",
    "rebase",
    "split_segments",
    "WorkloadStats",
    "characterize",
    "SyntheticTraceConfig",
    "generate_trace",
    "read_trace_csv",
    "read_google_task_events",
    "write_trace_csv",
]
