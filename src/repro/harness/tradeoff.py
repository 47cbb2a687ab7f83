"""Fig. 10: the power/latency trade-off frontier.

The paper sweeps the local tier's weight ``w`` to trace the hierarchical
framework's trade-off curve between average per-job latency and average
per-job energy, and compares against the DRL-based allocation tier paired
with fixed timeout values (30, 60, 90 s). The proposed framework should
dominate: its curve encloses the smallest area against the axes.

:func:`run_tradeoff` regenerates all four curves;
:func:`frontier_savings` computes the paper's two headline comparisons —
maximum latency saving at equal energy and maximum energy saving at equal
latency — by interpolating along the baseline curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.harness.report import format_csv
from repro.harness.runner import (
    PAPER_PROTOCOL,
    Protocol,
    RunResult,
    make_system,
    run_system,
    shared_policy,
)
from repro.harness.table1 import default_config, make_traces

#: Default sweep of the local-tier weight w (power vs. latency).
DEFAULT_W_SWEEP = (0.1, 0.3, 0.5, 0.7, 0.9)
#: The paper's fixed timeout baselines, in seconds.
DEFAULT_TIMEOUTS = (30.0, 60.0, 90.0)


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of a trade-off curve."""

    curve: str
    parameter: float  # w for hierarchical, timeout seconds for baselines
    mean_latency: float  # seconds per job
    energy_per_job_wh: float  # watt-hours per job

    @classmethod
    def from_result(
        cls, curve: str, parameter: float, result: RunResult
    ) -> "TradeoffPoint":
        return cls(
            curve=curve,
            parameter=parameter,
            mean_latency=result.mean_latency,
            energy_per_job_wh=result.energy_per_job_wh,
        )


def run_tradeoff(
    n_jobs: int = 3_000,
    num_servers: int = 30,
    seed: int = 0,
    w_sweep: tuple[float, ...] = DEFAULT_W_SWEEP,
    timeouts: tuple[float, ...] = DEFAULT_TIMEOUTS,
    protocol: Protocol = PAPER_PROTOCOL,
) -> list[TradeoffPoint]:
    """Regenerate the Fig. 10 curves.

    Returns hierarchical points (curve ``"hierarchical"``, one per ``w``)
    and fixed-timeout points (curve ``"fixed-T"``, one per timeout).
    """
    config = default_config(num_servers, seed=seed)
    eval_jobs, train_traces = make_traces(n_jobs, num_servers, seed)
    runs = [("hierarchical", "hierarchical", w, w) for w in w_sweep]
    runs += [(f"drl+fixed-{t:g}", f"fixed-{t:g}", t, None) for t in timeouts]
    # One shared DRL allocation tier (and LSTM predictor) for every
    # point — the paper pairs the same global tier with different local
    # tiers.
    policy = shared_policy(
        tuple(name for name, *_ in runs), config, train_traces, protocol
    )
    # Each system is dropped once evaluated, before the next is built.
    points: list[TradeoffPoint] = []
    for name, curve_name, parameter, local_w in runs:
        result = run_system(
            make_system(name, config, train_traces, policy, protocol, local_w=local_w),
            eval_jobs,
            protocol,
        )
        points.append(TradeoffPoint.from_result(curve_name, parameter, result))
    return points


def curve(points: list[TradeoffPoint], name: str) -> list[TradeoffPoint]:
    """The points of one named curve, sorted by energy.

    ``name`` matches exactly, or as a dash-prefix — ``"fixed"`` selects
    the union of ``fixed-30`` / ``fixed-60`` / ``fixed-90``, the combined
    fixed-timeout frontier the paper's Fig. 10 compares against.
    """
    selected = [
        p for p in points if p.curve == name or p.curve.startswith(name + "-")
    ]
    return sorted(selected, key=lambda p: p.energy_per_job_wh)


def pareto_front(points: list[TradeoffPoint]) -> list[TradeoffPoint]:
    """Non-dominated subset (minimizing both latency and energy)."""
    ordered = sorted(points, key=lambda p: (p.energy_per_job_wh, p.mean_latency))
    front: list[TradeoffPoint] = []
    best_latency = float("inf")
    for point in ordered:
        if point.mean_latency < best_latency:
            front.append(point)
            best_latency = point.mean_latency
    return front


def _interp(x: float, xs: np.ndarray, ys: np.ndarray) -> float | None:
    """Linear interpolation with None outside the hull."""
    if x < xs.min() or x > xs.max():
        return None
    return float(np.interp(x, xs, ys))


def frontier_savings(
    points: list[TradeoffPoint],
    ours: str = "hierarchical",
    baseline: str = "fixed",
) -> dict[str, float]:
    """The paper's two savings numbers between two curves.

    * ``latency_saving`` — maximum relative latency reduction at equal
      per-job energy (paper: up to 16.16 % vs. the fixed-90 baseline);
    * ``energy_saving`` — maximum relative energy reduction at equal
      latency (paper: up to 16.20 %).

    Savings are computed at our curve's sample points against linear
    interpolation of the baseline curve; points outside the baseline's
    hull are skipped. Returns zero savings when the curves do not
    overlap.
    """
    our_points = curve(points, ours)
    base_points = curve(points, baseline)
    if not our_points or not base_points:
        raise ValueError(f"missing curve: {ours!r} or {baseline!r}")
    base_e = np.array([p.energy_per_job_wh for p in base_points])
    base_l = np.array([p.mean_latency for p in base_points])
    lat_order = np.argsort(base_l)

    latency_saving = 0.0
    energy_saving = 0.0
    for point in our_points:
        base_latency = _interp(point.energy_per_job_wh, base_e, base_l)
        if base_latency is not None and base_latency > 0:
            latency_saving = max(
                latency_saving, (base_latency - point.mean_latency) / base_latency
            )
        base_energy = _interp(
            point.mean_latency, base_l[lat_order], base_e[lat_order]
        )
        if base_energy is not None and base_energy > 0:
            energy_saving = max(
                energy_saving, (base_energy - point.energy_per_job_wh) / base_energy
            )
    return {"latency_saving": latency_saving, "energy_saving": energy_saving}


def render_tradeoff_csv(points: list[TradeoffPoint]) -> str:
    """CSV text of all trade-off points."""
    rows = [
        [p.curve, p.parameter, f"{p.energy_per_job_wh:.4f}", f"{p.mean_latency:.2f}"]
        for p in points
    ]
    return format_csv(
        ["curve", "parameter", "energy_wh_per_job", "mean_latency_s"], rows
    )
