"""Experiments E2/E3 — Fig. 8 (M = 30).

Panel (a): accumulated job latency versus the number of jobs.
Panel (b): energy usage versus the number of jobs.

Paper shape: the round-robin curve grows slowest in latency but fastest
in energy; the hierarchical curve stays below DRL-only in energy and
grows no faster in latency.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import save_artifact
from repro.harness.table1 import render_series_csv


@pytest.fixture(scope="module")
def fig8(table1_results):
    """Table I's M = 30 runs by system."""
    return table1_results[30]


def test_bench_fig8(fig8, out_dir):
    save_artifact(out_dir, "fig8a_latency.csv", render_series_csv(fig8, "latency"))
    save_artifact(out_dir, "fig8b_energy.csv", render_series_csv(fig8, "energy"))


def test_series_are_monotone(fig8):
    for name, result in fig8.items():
        for points in (result.latency_series, result.energy_series):
            values = [v for _, v in points]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:])), name


def test_round_robin_lowest_final_latency(fig8):
    finals = {name: r.latency_series[-1][1] for name, r in fig8.items()}
    assert finals["round-robin"] == min(finals.values())


def test_round_robin_highest_final_energy(fig8):
    finals = {name: r.energy_series[-1][1] for name, r in fig8.items()}
    assert finals["round-robin"] == max(finals.values())


def test_energy_gap_grows_with_jobs(fig8):
    """The round-robin energy curve has a visibly larger slope (Fig. 8b):
    the gap at the end exceeds the gap at one third of the run."""
    rr = dict(fig8["round-robin"].energy_series)
    hier = dict(fig8["hierarchical"].energy_series)
    common = sorted(set(rr) & set(hier))
    assert len(common) >= 3
    early, late = common[len(common) // 3], common[-1]
    assert (rr[late] - hier[late]) > (rr[early] - hier[early])
