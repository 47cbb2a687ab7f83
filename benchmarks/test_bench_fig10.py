"""Experiment E5 — Fig. 10: the power/latency trade-off frontier.

Sweeps the local tier's weight w for the hierarchical framework and
compares against the same DRL allocation tier with fixed timeouts of 30,
60, and 90 s. Paper claims: the hierarchical curve achieves the smallest
area against the axes, with up to 16.16 % latency saving at equal energy
and 16.20 % energy saving at equal latency versus fixed timeouts.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import save_artifact
from repro.harness.tradeoff import (
    curve,
    frontier_savings,
    pareto_front,
    render_tradeoff_csv,
    run_tradeoff,
)


@pytest.fixture(scope="module")
def tradeoff_points(bench_jobs, bench_seed):
    return run_tradeoff(
        n_jobs=max(bench_jobs // 2, 500),
        num_servers=30,
        seed=bench_seed,
        w_sweep=(0.1, 0.3, 0.5, 0.7, 0.9),
        timeouts=(30.0, 60.0, 90.0),
    )


def test_bench_fig10(tradeoff_points, out_dir):
    text = render_tradeoff_csv(tradeoff_points)
    # "fixed" = the union of the fixed-timeout points: the combined
    # baseline frontier (each single timeout alone is one point, which
    # cannot be interpolated against).
    savings = frontier_savings(tradeoff_points, "hierarchical", "fixed")
    text += (
        f"\n# vs combined fixed-timeout frontier: latency saving at equal "
        f"energy {savings['latency_saving']:+.1%}, energy saving at equal "
        f"latency {savings['energy_saving']:+.1%}"
    )
    save_artifact(out_dir, "fig10_tradeoff.csv", text)


def test_all_curves_present(tradeoff_points):
    names = {p.curve for p in tradeoff_points}
    assert names == {"hierarchical", "fixed-30", "fixed-60", "fixed-90"}
    assert len(curve(tradeoff_points, "hierarchical")) == 5


def test_hierarchical_on_pareto_front(tradeoff_points):
    """At least one hierarchical point must be globally non-dominated —
    the adaptive timeout can always match a fixed one."""
    front = pareto_front(tradeoff_points)
    assert any(p.curve == "hierarchical" for p in front)


def test_w_sweep_spans_the_space(tradeoff_points):
    """Different w values must produce materially different operating
    points (the curve is a curve, not a dot)."""
    ours = curve(tradeoff_points, "hierarchical")
    energies = [p.energy_per_job_wh for p in ours]
    latencies = [p.mean_latency for p in ours]
    assert max(energies) > 1.05 * min(energies) or max(latencies) > 1.05 * min(
        latencies
    )
