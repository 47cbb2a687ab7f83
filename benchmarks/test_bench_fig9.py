"""Experiment E4 — Fig. 9 (M = 40).

Same panels as Fig. 8 on the larger cluster. The paper's observation:
round-robin's energy growth rate *increases* with M (idle servers burn
power), while the DRL-based frameworks' energy stays roughly flat — the
per-job latency behaviour barely changes.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import save_artifact
from repro.harness.figures import render_series_csv, run_figure8, run_figure9


@pytest.fixture(scope="module")
def fig9(bench_jobs, bench_seed):
    return run_figure9(n_jobs=bench_jobs, seed=bench_seed)


def test_bench_fig9(fig9, out_dir):
    save_artifact(out_dir, "fig9a_latency.csv", render_series_csv(fig9, "latency"))
    save_artifact(out_dir, "fig9b_energy.csv", render_series_csv(fig9, "energy"))


def test_shape_round_robin_extremes_m40(fig9):
    lat_finals = {name: points[-1][1] for name, points in fig9.latency.items()}
    eng_finals = {name: points[-1][1] for name, points in fig9.energy.items()}
    assert lat_finals["round-robin"] == min(lat_finals.values())
    assert eng_finals["round-robin"] == max(eng_finals.values())


def test_round_robin_energy_scales_with_m(bench_jobs, bench_seed, fig9):
    """Paper Sec. VII-B: round-robin energy grows with cluster size while
    the DRL frameworks' energy stays roughly constant."""
    fig8 = run_figure8(
        n_jobs=max(bench_jobs // 3, 500),
        seed=bench_seed,
        systems=("round-robin",),
    )
    fig9_small = run_figure9(
        n_jobs=max(bench_jobs // 3, 500),
        seed=bench_seed,
        systems=("round-robin",),
    )
    e30 = fig8.energy["round-robin"][-1][1]
    e40 = fig9_small.energy["round-robin"][-1][1]
    assert e40 > e30 * 1.1
