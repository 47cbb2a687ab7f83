"""Experiment E7 — trace-replay ingestion and electricity accounting.

Measures the new scenario-layer paths end to end on the bundled
Google-format fixture:

* task-events parse throughput (rows/s through
  :func:`~repro.workload.trace.read_google_task_events`, including the
  per-incarnation SUBMIT/FINISH pairing);
* replay-cell wall time vs the synthetic cell of the same size, so the
  file-backed workload path stays in the same cost band as generation;
* tariff overhead: the exact cost/CO₂ integration must be effectively
  free next to the simulation itself.

Point ``REPRO_BENCH_REPLAY_TRACE`` at real cluster-usage part files to
re-run the ingestion numbers at full scale.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from pathlib import Path

from benchmarks.conftest import save_artifact
from repro.scenarios import registry
from repro.scenarios.builtin import FIXTURE_TRACE
from repro.scenarios.orchestrator import run_cell
from repro.sim.power import TariffModel
from repro.workload.trace import read_google_task_events

REPLAY_TRACE = os.environ.get("REPRO_BENCH_REPLAY_TRACE", FIXTURE_TRACE)
TRACE_PATHS = [Path(p) for p in REPLAY_TRACE.split(os.pathsep)]
REPLAY_JOBS = int(os.environ.get("REPRO_BENCH_REPLAY_JOBS", "80"))


def _replay_spec():
    spec = registry.get("google-replay")
    return replace(
        spec,
        workload=replace(
            spec.workload,
            replay=replace(
                spec.workload.replay, paths=tuple(str(p) for p in TRACE_PATHS)
            ),
        ),
    )


def test_bench_trace_ingestion(out_dir):
    """Parse throughput of the Google task-events reader."""
    n_rows = sum(
        1 for path in TRACE_PATHS for _ in path.open()
    )
    repeats = 20 if n_rows < 10_000 else 1
    t0 = time.perf_counter()
    for _ in range(repeats):
        jobs = read_google_task_events(TRACE_PATHS)
    elapsed = (time.perf_counter() - t0) / repeats
    assert jobs, "fixture must parse to jobs"
    text = "\n".join(
        [
            f"files: {len(TRACE_PATHS)}  rows: {n_rows}  jobs: {len(jobs)}",
            f"parse: {elapsed * 1e3:.2f} ms "
            f"({n_rows / max(elapsed, 1e-9):,.0f} rows/s, "
            f"mean of {repeats} runs)",
        ]
    )
    save_artifact(out_dir, "bench_trace_ingestion.txt", text)


def test_bench_replay_cell_and_tariff(out_dir, bench_seed):
    """Replay vs synthetic cell wall time; tariff accounting overhead."""
    spec = _replay_spec()
    spec.workload.replay.load_jobs()  # warm the parse cache: bench the sim

    t0 = time.perf_counter()
    plain = run_cell(spec, "round-robin", n_jobs=REPLAY_JOBS, seed=bench_seed)
    t_replay = time.perf_counter() - t0

    tou = replace(spec, tariff=TariffModel.time_of_use(16, 21, 0.32, 0.08))
    t0 = time.perf_counter()
    billed = run_cell(tou, "round-robin", n_jobs=REPLAY_JOBS, seed=bench_seed)
    t_billed = time.perf_counter() - t0

    t0 = time.perf_counter()
    synth = run_cell(
        "paper-default", "round-robin", n_jobs=REPLAY_JOBS, seed=bench_seed
    )
    t_synth = time.perf_counter() - t0

    assert billed["cost_usd"] > 0 and billed["co2_kg"] > 0
    assert billed["energy_kwh"] == plain["energy_kwh"], "tariff is metrics-only"
    text = "\n".join(
        [
            f"cell size: {REPLAY_JOBS} jobs (round-robin)",
            f"replay cell:             {t_replay:.2f} s "
            f"({plain['n_jobs_completed']} completed)",
            f"replay cell + tariff:    {t_billed:.2f} s "
            f"(${billed['cost_usd']:.2f}, {billed['co2_kg']:.2f} kg CO2)",
            f"synthetic cell:          {t_synth:.2f} s",
        ]
    )
    save_artifact(out_dir, "bench_trace_replay.txt", text)
