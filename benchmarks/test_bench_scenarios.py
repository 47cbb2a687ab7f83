"""Experiment E6 — scenario sweep throughput.

Smoke-benchmarks the orchestrator on a small (scenario × system) grid:

* per-scenario wall time for one cell (the unit of parallel work);
* parallel speedup of the full grid versus serial execution, which
  should approach min(grid size, cores) for these independent cells;
* cached re-run time, which should be effectively zero;
* trace generation, the set-up every cell pays first, against the
  ``uniform()``-coin, per-element oracles in ``tests/helpers.py``.

Scale with ``REPRO_BENCH_SCENARIO_JOBS`` (default 200 jobs per cell —
the grid retrains nothing DRL by default, so cells are simulation-bound).
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import merge_hotpath, save_artifact
from repro.harness.report import format_table
from repro.scenarios import registry
from repro.scenarios.checkpoints import CheckpointStore
from repro.scenarios.orchestrator import detected_cpus, run_cell, sweep
from repro.scenarios.store import ResultStore
from repro.workload.mixtures import correlated_traces
from repro.workload.synthetic import (
    SyntheticTraceConfig,
    generate_trace,
    reference_rate,
)
from tests.helpers import interleaved, paired_ratio, sampler_oracles

SCENARIO_JOBS = int(os.environ.get("REPRO_BENCH_SCENARIO_JOBS", "200"))
#: Non-learning systems keep the bench about orchestration, not training.
BENCH_SYSTEMS = ("round-robin", "packing")
#: Cell size for the warm-start bench (DRL cells: training dominates).
WARM_JOBS = int(os.environ.get("REPRO_BENCH_WARM_JOBS", "150"))
#: Timed rounds of the warm-start gate (seconds per round).
ROUNDS = 3
#: Jobs per generated trace in the sampler gate (the correlated one
#: splits them over three clusters), its rounds, and the median speedup
#: over the oracles it must keep.
TRACE_JOBS = 3_000
TRACE_ROUNDS = 9
MIN_TRACE_SPEEDUP = 1.3


def describe_speedup(ratio: dict) -> str:
    """A per-round speedup summary as one line of text."""
    return (
        f"{ratio['median']:.2f}x (median of {ratio['n']} rounds, quartiles "
        f"{ratio['q1']:.2f}x and {ratio['q3']:.2f}x)"
    )


@pytest.fixture(scope="module")
def sweep_kwargs(bench_seed):
    return dict(
        scenarios=list(registry.names()),
        systems=BENCH_SYSTEMS,
        seeds=(bench_seed,),
        n_jobs=SCENARIO_JOBS,
    )


def test_bench_single_cells(out_dir, bench_seed):
    """Wall time of one cell per scenario (round-robin reference system)."""
    rows = []
    for name in registry.names():
        t0 = time.perf_counter()
        result = run_cell(name, "round-robin", n_jobs=SCENARIO_JOBS, seed=bench_seed)
        elapsed = time.perf_counter() - t0
        rows.append(
            [
                name,
                result["n_jobs_offered"],
                f"{elapsed:.2f}",
                f"{result['energy_kwh']:.2f}",
                f"{result['mean_latency_s']:.1f}",
            ]
        )
    text = format_table(
        ["Scenario", "Jobs", "Wall (s)", "Energy (kWh)", "Mean lat (s)"], rows
    )
    save_artifact(out_dir, "bench_scenario_cells.txt", text)


def test_bench_parallel_speedup(out_dir, sweep_kwargs):
    """Serial vs parallel sweep of the full builtin grid (no cache)."""
    t0 = time.perf_counter()
    serial = sweep(workers=1, use_cache=False, **sweep_kwargs)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = sweep(workers=None, use_cache=False, **sweep_kwargs)
    t_parallel = time.perf_counter() - t0

    assert serial.results == parallel.results, "parallel must bit-match serial"
    cells = len(serial.results)
    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    text = "\n".join(
        [
            f"grid cells: {cells} ({len(registry.names())} scenarios x "
            f"{len(BENCH_SYSTEMS)} systems), {SCENARIO_JOBS} jobs/cell",
            f"serial:   {t_serial:.2f} s ({t_serial / cells:.2f} s/cell)",
            f"parallel: {t_parallel:.2f} s with "
            f"{detected_cpus()} CPUs detected for this process",
            f"speedup:  {speedup:.2f}x",
        ]
    )
    save_artifact(out_dir, "bench_scenario_sweep.txt", text)


def test_bench_warm_start_sweep(out_dir, bench_seed, tmp_path):
    """Wall-clock win of train-once / evaluate-many on a DRL grid.

    Three sweeps of the same (1 scenario × 2 DRL systems) grid:

    * **per-cell** — ``warm_start=False``: every DRL cell trains its own
      policy (the pre-checkpoint protocol);
    * **warm (cold blobs)** — the training group is trained once, both
      cells warm-start from it, and the blob is persisted;
    * **warm (hot blobs)** — a fresh result store but the populated
      checkpoint store: zero trainings, evaluation only.

    The hot-blob sweep must beat the per-cell sweep (it skips *all*
    training). The two run in the same interleaved rounds, and the gate
    takes the median per-round speedup, since shared runners are noisy.
    """
    systems = ("drl-only", "hierarchical")
    base = dict(
        scenarios=["paper-default"],
        systems=systems,
        seeds=(bench_seed,),
        n_jobs=WARM_JOBS,
        workers=1,
        pretrain=False,
        online_epochs=1,
        local_epochs=1,
    )
    ckpt_store = CheckpointStore(tmp_path / "ckpt")

    def per_cell():
        return sweep(use_cache=False, warm_start=False, **base)

    def warm():
        return sweep(use_cache=False, checkpoints=ckpt_store, **base)

    t0 = time.perf_counter()
    warm()  # cold blobs: trains the group once and persists it
    t_warm_cold = time.perf_counter() - t0
    assert len(ckpt_store) == 1, "both DRL cells must share one training"
    rounds = interleaved({"per_cell": lambda: per_cell, "hot": lambda: warm}, ROUNDS)
    assert len(ckpt_store) == 1
    assert rounds.results["hot"].n_computed == len(systems)

    speedup = paired_ratio(rounds.seconds["per_cell"], rounds.seconds["hot"])
    text = "\n".join(
        [
            f"grid: paper-default x {len(systems)} DRL systems, "
            f"{WARM_JOBS} jobs/cell, serial",
            f"per-cell training:      {rounds.summary('per_cell')['median']:.2f} s "
            f"median ({len(systems)} policies trained)",
            f"warm start, cold blobs: {t_warm_cold:.2f} s once (1 policy trained)",
            f"warm start, hot blobs:  {rounds.summary('hot')['median']:.2f} s "
            "median (0 policies trained)",
            f"speedup (hot vs per-cell): {describe_speedup(speedup)}",
        ]
    )
    save_artifact(out_dir, "bench_warm_start.txt", text)
    assert speedup["median"] > 1.0, (
        "warm sweep must beat per-cell training, got a speedup of "
        f"{describe_speedup(speedup)}"
    )


def test_bench_cached_rerun(out_dir, sweep_kwargs, tmp_path):
    """A warm cache answers the whole grid without recomputation."""
    store = ResultStore(tmp_path / "cache")
    sweep(workers=None, store=store, **sweep_kwargs)

    t0 = time.perf_counter()
    warm = sweep(workers=None, store=store, **sweep_kwargs)
    t_warm = time.perf_counter() - t0

    assert warm.n_computed == 0
    assert warm.n_cached == len(warm.results)
    text = (
        f"warm-cache sweep of {len(warm.results)} cells: {t_warm * 1000:.1f} ms"
    )
    save_artifact(out_dir, "bench_scenario_cache.txt", text)


def test_bench_trace_generation(out_dir, bench_seed):
    """``generate_trace`` and ``correlated_traces`` against the oracles.

    The oracle arms run the same functions with the ``uniform()``-coin
    samplers and per-element job construction of ``tests/helpers.py``
    patched in, so both arms make the same draws and return equal jobs.
    """
    config = SyntheticTraceConfig(
        n_jobs=TRACE_JOBS, horizon=TRACE_JOBS / reference_rate(30)
    )
    clusters = [(config, TRACE_JOBS // 3)] * 3

    def single():
        return generate_trace(config, seed=bench_seed)

    def correlated():
        return correlated_traces(
            clusters, config.horizon, seed=bench_seed, coupling=0.5
        )

    def oracle(work):
        def patched():
            with sampler_oracles():
                return work()

        return patched

    rounds = interleaved(
        {
            "generate_trace": lambda: single,
            "generate_trace_oracle": lambda: oracle(single),
            "correlated_traces": lambda: correlated,
            "correlated_traces_oracle": lambda: oracle(correlated),
        },
        TRACE_ROUNDS,
    )
    payload = {}
    for name in ("generate_trace", "correlated_traces"):
        assert rounds.results[name] == rounds.results[f"{name}_oracle"]
        speedup = paired_ratio(rounds.seconds[f"{name}_oracle"], rounds.seconds[name])
        payload[name] = {
            "fast": round(rounds.summary(name)["median"] * 1e3, 2),
            "oracle": round(rounds.summary(f"{name}_oracle")["median"] * 1e3, 2),
            "speedup": {key: round(value, 2) for key, value in speedup.items()},
        }
    merge_hotpath(out_dir, {"trace_generation_ms": {"jobs": TRACE_JOBS, **payload}})
    for name, entry in payload.items():
        assert entry["speedup"]["median"] >= MIN_TRACE_SPEEDUP, (
            f"{name} at {TRACE_JOBS} jobs runs {describe_speedup(entry['speedup'])} "
            f"as fast as the oracle (gate {MIN_TRACE_SPEEDUP}x): the slow coin "
            "or the per-element jobs may be back; rerun on a quiet machine"
        )
