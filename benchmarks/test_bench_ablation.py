"""Experiment E8 — ablations of the architecture's design choices.

Not a paper table; these benches quantify the load-bearing pieces of the
architecture on our substrate:

* **A1** — autoencoder + weight-shared Sub-Q (Fig. 6) versus the paper's
  strawman, a flat feed-forward Q-network over the full state;
* **A2** — the number of server groups K (paper: 2–4);
* **A3** — the Markov-repair state features (queue depth, on/off bit);
* **A4** — shared versus strictly per-server (paper-faithful) DPM
  Q-learners in the local tier.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from benchmarks.conftest import save_artifact
from repro.core.config import ExperimentConfig, GlobalTierConfig
from repro.core.global_tier import DRLGlobalBroker
from repro.core.hierarchical import HierarchicalSystem
from repro.core.baselines import ImmediateSleepPolicy
from repro.core.qnetwork import FlatQNetwork
from repro.harness.report import format_table
from repro.harness.runner import (
    PAPER_PROTOCOL,
    make_system,
    run_system,
    train_global_prototype,
    train_site_policy,
)
from repro.harness.table1 import default_config, make_traces


@pytest.fixture(scope="module")
def ablation_scale(bench_jobs):
    return max(bench_jobs // 2, 500)


@pytest.fixture(scope="module")
def traces(ablation_scale, bench_seed):
    return make_traces(ablation_scale, 30, bench_seed)


def _evaluate(system, eval_jobs):
    result = run_system(system, eval_jobs)
    return result.energy_kwh, result.mean_latency


def test_bench_ablation_architecture(traces, out_dir, bench_seed):
    """A1: hierarchical Q-network vs flat feed-forward Q-network."""
    eval_jobs, train_traces = traces
    rows = []

    config = default_config(30, seed=bench_seed)
    proto = train_global_prototype(config, train_traces, PAPER_PROTOCOL)
    hier_system = HierarchicalSystem(
        "drl-only", proto, ImmediateSleepPolicy(), config, initially_on=False
    )
    e, lat = _evaluate(hier_system, eval_jobs)
    rows.append(
        ["fig6-hierarchical", proto.qnet.num_parameters(), f"{e:.2f}", f"{lat:.0f}"]
    )

    import numpy as np

    flat_broker = DRLGlobalBroker(
        proto.encoder,
        config.global_tier,
        qnetwork=FlatQNetwork(proto.encoder, rng=np.random.default_rng(bench_seed)),
        rng=np.random.default_rng(bench_seed),
    )
    flat_system = HierarchicalSystem(
        "drl-only-flat", flat_broker, ImmediateSleepPolicy(), config, initially_on=False
    )
    for trace in train_traces:  # same online training budget
        flat_system.run([j.copy() for j in trace])
        flat_system.run([j.copy() for j in trace])
    e, lat = _evaluate(flat_system, eval_jobs)
    rows.append(
        ["flat-mlp", flat_broker.qnet.num_parameters(), f"{e:.2f}", f"{lat:.0f}"]
    )

    text = format_table(
        ["architecture", "params", "energy kWh", "mean latency s"], rows
    )
    save_artifact(out_dir, "ablation_architecture.txt", text)


def test_bench_ablation_groups(traces, out_dir, bench_seed):
    """A2: K in {2, 3, 5} server groups (M = 30)."""
    eval_jobs, train_traces = traces
    rows = []
    for k in (2, 3, 5):
        config = ExperimentConfig(
            num_servers=30,
            global_tier=GlobalTierConfig(num_groups=k),
            seed=bench_seed,
        )
        system = make_system("drl-only", config, train_traces)
        e, lat = _evaluate(system, eval_jobs)
        rows.append([k, system.broker.qnet.num_parameters(), f"{e:.2f}", f"{lat:.0f}"])
    text = format_table(["K", "params", "energy kWh", "mean latency s"], rows)
    save_artifact(out_dir, "ablation_groups.txt", text)


def test_bench_ablation_state_features(traces, out_dir, bench_seed):
    """A3: with/without the queue-depth and on/off state features."""
    eval_jobs, train_traces = traces
    rows = []
    for label, queue, power in (
        ("paper-state (util only)", False, False),
        ("+on/off bit", False, True),
        ("+queue depth (full)", True, True),
    ):
        config = replace(
            default_config(30, seed=bench_seed),
            global_tier=replace(
                default_config(30).global_tier,
                include_queue_state=queue,
                include_power_state=power,
            ),
        )
        system = make_system("drl-only", config, train_traces)
        e, lat = _evaluate(system, eval_jobs)
        rows.append([label, f"{e:.2f}", f"{lat:.0f}"])
    text = format_table(["state features", "energy kWh", "mean latency s"], rows)
    save_artifact(out_dir, "ablation_state.txt", text)


def test_bench_ablation_dpm_learner_sharing(traces, out_dir, bench_seed):
    """A4: shared vs per-server (paper-distributed) local-tier learners."""
    eval_jobs, train_traces = traces
    config = default_config(30, seed=bench_seed)
    policy = train_site_policy(config, train_traces, with_predictor=True)
    rows = []
    for label, shared in (("shared-learner", True), ("per-server (paper)", False)):
        system = make_system(
            "hierarchical",
            config,
            train_traces,
            policy=policy,
            shared_dpm_learner=shared,
        )
        e, lat = _evaluate(system, eval_jobs)
        rows.append([label, f"{e:.2f}", f"{lat:.0f}"])
    text = format_table(["local-tier learner", "energy kWh", "mean latency s"], rows)
    save_artifact(out_dir, "ablation_dpm.txt", text)
