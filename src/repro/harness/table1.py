"""Table I: cluster performance metrics at a fixed job count.

The paper reports, for M = 30 and M = 40 and 95 000 jobs, the accumulated
energy (kWh), accumulated latency (1e6 s), and average power (W) of the
round-robin baseline, the DRL-only framework, and the full hierarchical
framework. :func:`run_table1` regenerates those rows at any job count
(the defaults are laptop-scaled; pass ``n_jobs=95_000`` for the paper's
full size).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import ExperimentConfig, GlobalTierConfig, groups_for
from repro.harness.report import format_table
from repro.harness.runner import RunResult, standard_protocol
from repro.workload.synthetic import (
    SyntheticTraceConfig,
    generate_trace,
    reference_rate,
)

#: The three systems Table I compares, in the paper's order.
TABLE1_SYSTEMS = ("round-robin", "drl-only", "hierarchical")


@dataclass(frozen=True)
class Table1Row:
    """One cell-group of Table I."""

    system: str
    num_servers: int
    energy_kwh: float
    latency_1e6_s: float
    power_w: float

    @classmethod
    def from_result(cls, result: RunResult) -> "Table1Row":
        return cls(
            system=result.name,
            num_servers=result.num_servers,
            energy_kwh=result.energy_kwh,
            latency_1e6_s=result.acc_latency_1e6,
            power_w=result.average_power,
        )


def default_config(num_servers: int, seed: int = 0) -> ExperimentConfig:
    """Paper-default experiment configuration for a cluster size."""
    return ExperimentConfig(
        num_servers=num_servers,
        global_tier=GlobalTierConfig(num_groups=groups_for(num_servers)),
        seed=seed,
    )


def make_traces(
    n_jobs: int,
    num_servers: int,
    seed: int,
    n_train_segments: int = 2,
    train_fraction: float = 0.5,
) -> tuple[list, list[list]]:
    """Evaluation trace plus training segments, scaled to the cluster.

    The base synthetic config (100 k jobs/week) targets the paper's
    30-machine cluster. Larger clusters reuse the same intensity (the
    paper evaluates M = 30 and 40 on the same segments); smaller test
    clusters get a proportionally lighter arrival rate so they are not
    pathologically overloaded.
    """
    base = SyntheticTraceConfig()
    rate = reference_rate(num_servers)
    # Independent child streams per trace (never plain seed+i offsets,
    # which collide with other traces seeded nearby).
    eval_ss, *train_ss = np.random.SeedSequence(seed).spawn(1 + n_train_segments)
    eval_cfg = replace(base, n_jobs=n_jobs, horizon=n_jobs / rate)
    eval_jobs = generate_trace(eval_cfg, seed=np.random.default_rng(eval_ss))
    train_jobs = max(int(n_jobs * train_fraction), 200)
    train_cfg = replace(base, n_jobs=train_jobs, horizon=train_jobs / rate)
    train_traces = [
        generate_trace(train_cfg, seed=np.random.default_rng(child))
        for child in train_ss
    ]
    return eval_jobs, train_traces


def run_table1(
    n_jobs: int = 5_000,
    cluster_sizes: tuple[int, ...] = (30, 40),
    seed: int = 0,
    systems: tuple[str, ...] = TABLE1_SYSTEMS,
    **make_kwargs,
) -> list[Table1Row]:
    """Regenerate Table I.

    Parameters
    ----------
    n_jobs:
        Jobs in the evaluation trace (paper: 95 000).
    cluster_sizes:
        M values (paper: 30 and 40).
    """
    rows: list[Table1Row] = []
    for num_servers in cluster_sizes:
        config = default_config(num_servers, seed=seed)
        eval_jobs, train_traces = make_traces(n_jobs, num_servers, seed)
        results = standard_protocol(
            systems, eval_jobs, config, train_traces, **make_kwargs
        )
        for name in systems:
            rows.append(Table1Row.from_result(results[name]))
    return rows


def render_table1(rows: list[Table1Row]) -> str:
    """Paper-style text rendering of Table I rows."""
    return format_table(
        ["System", "M", "Energy (kWh)", "Latency (1e6 s)", "Power (W)"],
        [
            [
                row.system,
                row.num_servers,
                f"{row.energy_kwh:.2f}",
                f"{row.latency_1e6_s:.3f}",
                f"{row.power_w:.2f}",
            ]
            for row in rows
        ],
    )
