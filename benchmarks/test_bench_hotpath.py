"""Experiment E7 — decision fast-path microbenchmark.

Every job arrival is a decision epoch in the paper's continuous-time
framework, so simulated throughput is bounded by per-epoch cost. This
bench pins the *pre-vectorization* loop path (re-created faithfully
below: per-server Python accounting and aggregate sums, per-server state
encoding, K batch-1 Sub-Q passes, deque-of-dataclass replay re-stacking)
against the shipped fast path (vectorized ledger sync + array
reductions, slice-assignment encoding, one stacked Sub-Q forward,
ring-buffer replay), and records:

* decision-epoch latency (full epoch: sync + aggregate reads + encode +
  Q-values) and its components, fast vs loop;
* train-step latency (replay sample + target build + SGD step);
* optimizer-step latency: the packed Adam (one in-place pass over the
  Q-network's whole parameter vector) against Adam one array at a time;
* end-to-end DRL simulation throughput in jobs/sec.

The Sub-Q loop and the per-array Adam are references in
``tests/helpers.py``. Results merge into ``BENCH_hotpath.json`` (the
perf trajectory file) in the bench output directory. The acceptance
gates assert the median per-round decision-epoch speedup at M=30 / K=3
(``REPRO_BENCH_MIN_SPEEDUP`` relaxes it for noisy shared runners) and
train-step and optimizer-step ratios of >= 1.

Scale knobs: ``REPRO_BENCH_HOTPATH_ITERS`` (decision epochs per arm per
round, default 400), ``REPRO_BENCH_HOTPATH_JOBS`` (end-to-end trace
length, default 1500).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import merge_hotpath
from repro.core.baselines import AlwaysOnPolicy, ImmediateSleepPolicy, RoundRobinBroker
from repro.core.config import ExperimentConfig, GlobalTierConfig
from repro.core.global_tier import DRLGlobalBroker
from repro.core.qnetwork import HierarchicalQNetwork
from repro.core.state import StateEncoder
from repro.rl.replay import ReplayMemory, Transition
from repro.sim.engine import build_simulation
from repro.workload.synthetic import SyntheticTraceConfig, generate_trace
from tests.helpers import (
    LoopAdam,
    assemble,
    assert_same_adam,
    interleaved,
    paired_ratio,
    train_step_loop,
)

ITERS = int(os.environ.get("REPRO_BENCH_HOTPATH_ITERS", "400"))
E2E_JOBS = int(os.environ.get("REPRO_BENCH_HOTPATH_JOBS", "1500"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))

M, K = 30, 3
BATCH = 32
ROUNDS = 9


# ----------------------------------------------------------------------
# Faithful re-creations of the pre-vectorization (loop) path
# ----------------------------------------------------------------------


def legacy_sync_and_aggregates(cluster, now: float):
    """Per-server Python accounting + aggregate sums (the old
    ``Cluster.sync`` / ``total_energy`` / ``system_integral`` /
    ``overload_integral``). Compute-only: returns the integrals it would
    have written, without disturbing the live ledger."""
    from repro.sim.server import PowerState

    energy = 0.0
    system = 0.0
    overload = 0.0
    for s in cluster.servers:
        dt = max(now - s._last_account, 0.0)
        e = s.energy_joules + s.current_power() * dt
        v = s.system_integral + s.jobs_in_system * dt
        cpu = s.cpu_utilization if s.state is PowerState.ACTIVE else 0.0
        o = s.overload_integral + max(0.0, cpu - s.overload_threshold) * dt
        energy += e
        system += v
        overload += o
    return energy, system, overload


def legacy_encode(cluster, job, enc: StateEncoder) -> np.ndarray:
    """Per-server object scan (the old ``StateEncoder.encode``)."""
    util = np.array([s.used.copy() for s in cluster.servers])[:, : enc.num_resources]
    blocks = [
        util,
        np.array([1.0 if s.state.is_on else 0.0 for s in cluster.servers])[:, None],
        np.minimum(
            np.array([float(s.queue_length) for s in cluster.servers])
            / enc.queue_scale,
            1.0,
        )[:, None],
    ]
    server_block = np.concatenate(blocks, axis=1)
    return np.concatenate([server_block.reshape(-1), enc.encode_job(job)])


def legacy_predict(qnet: HierarchicalQNetwork, states: np.ndarray) -> np.ndarray:
    """K per-group Sub-Q passes with cache-building forwards (the old
    ``predict``, whose ``MLP.predict`` built backward caches)."""
    groups, jobs = qnet.encoder.split(states)
    flat = groups.reshape(-1, qnet.group_dim)
    codes, _ = qnet.autoencoder.encoder.forward(flat)
    codes = codes.reshape(qnet.num_groups, jobs.shape[0], qnet.code_dim)
    out = np.empty((jobs.shape[0], qnet.num_actions))
    for k in range(qnet.num_groups):
        q_k, _ = qnet.subq.forward(assemble(qnet, k, groups, codes, jobs))
        out[:, k * qnet.group_size : (k + 1) * qnet.group_size] = q_k
    return out


def legacy_train_minibatch(qnet, memory, rng, beta=0.5):
    """Deque-style re-stacking + loop train step (the old broker path)."""
    batch = memory.sample(BATCH, rng)
    states = np.stack([tr.state for tr in batch])
    actions = np.array([tr.action for tr in batch], dtype=np.int64)
    rewards = np.array([tr.reward for tr in batch])
    taus = np.array([tr.tau for tr in batch])
    next_states = np.stack([tr.next_state for tr in batch])
    next_max = legacy_predict(qnet, next_states).max(axis=1)
    targets = rewards + np.exp(-beta * taus) * next_max
    return train_step_loop(qnet, states, actions, targets, qnet._bench_opt)


def fast_train_minibatch(qnet, memory, rng, beta=0.5):
    states, actions, rewards, next_states, taus = memory.sample_arrays(BATCH, rng)
    next_max = qnet.predict(next_states).max(axis=1)
    targets = rewards + np.exp(-beta * taus) * next_max
    return qnet.train_step(states, actions, targets, qnet._bench_opt)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def repeat(fn, iters: int):
    """An arm with nothing to set up that calls ``fn`` ``iters`` times."""

    def work():
        for _ in range(iters):
            fn()

    return lambda: work


def compare(rounds, name: str, iters: int, unit=1e6, digits=2) -> dict:
    """Median time per call of each path (in ``1/unit`` s) and the median,
    quartiles and count of the per-round loop/fast ratio."""
    fast, loop = f"{name}_fast", f"{name}_loop"
    ratio = paired_ratio(rounds.seconds[loop], rounds.seconds[fast])
    return {
        "fast": round(rounds.summary(fast)["median"] / iters * unit, digits),
        "loop": round(rounds.summary(loop)["median"] / iters * unit, digits),
        "speedup": {key: round(value, 2) for key, value in ratio.items()},
    }


@pytest.fixture(scope="module")
def rig(bench_seed):
    """A mid-run M=30 cluster plus a K=3 hierarchical Q-network."""
    enc = StateEncoder(M, num_groups=K)
    qnet = HierarchicalQNetwork(enc, rng=np.random.default_rng(bench_seed))
    trace = generate_trace(
        SyntheticTraceConfig(n_jobs=300, horizon=4000.0), seed=bench_seed
    )
    engine = build_simulation(
        M, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
    )
    engine.run(trace[:250])
    rng = np.random.default_rng(bench_seed)
    memory = ReplayMemory(5000)
    for _ in range(2000):
        memory.push(
            Transition(
                rng.uniform(0.0, 1.0, enc.state_dim),
                int(rng.integers(0, M)),
                float(rng.normal()),
                rng.uniform(0.0, 1.0, enc.state_dim),
                float(rng.uniform(0.1, 10.0)),
            )
        )
    return {
        "enc": enc,
        "qnet": qnet,
        "cluster": engine.cluster,
        "probe": trace[250],
        "memory": memory,
        "rng": rng,
    }


def test_bench_hotpath(rig, out_dir, bench_seed):
    enc, qnet = rig["enc"], rig["qnet"]
    cluster, probe = rig["cluster"], rig["probe"]
    memory, rng = rig["memory"], rig["rng"]

    # Sanity: the fast path must be bit-identical before it is "faster".
    state = enc.encode(cluster, probe)
    assert np.array_equal(state, legacy_encode(cluster, probe, enc))
    assert np.array_equal(qnet.q_values(state), legacy_predict(qnet, state[None])[0])

    clock = {"t": cluster.events.now}

    def fast_epoch():
        clock["t"] += 1e-3  # advancing time: sync really integrates
        now = clock["t"]
        cluster.sync(now)
        cluster.total_energy()
        cluster.system_integral()
        cluster.overload_integral()
        return qnet.q_values(enc.encode(cluster, probe))

    def loop_epoch():
        clock["t"] += 1e-3
        legacy_sync_and_aggregates(cluster, clock["t"])
        return legacy_predict(qnet, legacy_encode(cluster, probe, enc)[None])[0]

    # Components and train step take fewer iters: they are sub-measurements
    # for the table. The train step includes replay sampling and targets.
    sub = max(ITERS // 2, 200)
    train_iters = max(ITERS // 20, 20)
    qnet._bench_opt = qnet.make_optimizer()
    twin = qnet.clone()
    twin._bench_opt = twin.make_optimizer()
    # Optimizer step alone, on the same fixed gradients: both arms take
    # the same steps, so they must end bit for bit equal.
    optim_iters = max(ITERS // 4, 100)
    packed_net = qnet.clone()
    packed_opt = packed_net.make_optimizer()
    packed_opt.grads[...] = np.random.default_rng(bench_seed).normal(
        size=packed_opt.grads.size
    )
    loop_net = qnet.clone()
    loop_opt = LoopAdam(loop_net.parameters())
    for mine, theirs in zip(loop_opt.parameters, packed_opt.parameters):
        mine.grad[...] = theirs.grad
    rounds = interleaved(
        {
            "epoch_fast": repeat(fast_epoch, ITERS),
            "epoch_loop": repeat(loop_epoch, ITERS),
            "encode_fast": repeat(lambda: enc.encode(cluster, probe), sub),
            "encode_loop": repeat(lambda: legacy_encode(cluster, probe, enc), sub),
            "q_fast": repeat(lambda: qnet.q_values(state), sub),
            "q_loop": repeat(lambda: legacy_predict(qnet, state[None]), sub),
            "train_fast": repeat(
                lambda: fast_train_minibatch(qnet, memory, rng), train_iters
            ),
            "train_loop": repeat(
                lambda: legacy_train_minibatch(twin, memory, rng), train_iters
            ),
            "optim_fast": repeat(packed_opt.step, optim_iters),
            "optim_loop": repeat(loop_opt.step, optim_iters),
        },
        ROUNDS,
    )
    assert_same_adam(packed_opt, loop_opt)

    # End-to-end: jobs/sec of a DRL-brokered simulation (fast path only —
    # the trajectory metric future PRs must not regress).
    config = ExperimentConfig(
        num_servers=M, global_tier=GlobalTierConfig(num_groups=K), seed=bench_seed
    )
    broker = DRLGlobalBroker(
        StateEncoder(M, num_groups=K),
        config.global_tier,
        rng=np.random.default_rng(bench_seed),
    )
    e2e_trace = generate_trace(
        SyntheticTraceConfig(n_jobs=E2E_JOBS, horizon=E2E_JOBS * 14.0),
        seed=bench_seed + 1,
    )
    engine = build_simulation(M, broker, ImmediateSleepPolicy())
    t0 = time.perf_counter()
    engine.run(e2e_trace)
    e2e_wall = time.perf_counter() - t0
    jobs_per_sec = E2E_JOBS / e2e_wall

    payload = {
        "m": M,
        "k": K,
        "batch": BATCH,
        "iters": ITERS,
        "decision_epoch_us": compare(rounds, "epoch", ITERS),
        "encode_us": compare(rounds, "encode", sub),
        "q_values_us": compare(rounds, "q", sub),
        "train_step_ms": compare(rounds, "train", train_iters, 1e3, 3),
        "optim_step_us": compare(rounds, "optim", optim_iters),
        "drl_sim_jobs_per_sec": round(jobs_per_sec, 1),
        "e2e_jobs": E2E_JOBS,
    }
    # Merge over the existing trajectory file: other benches (e.g. the
    # federation-dispatch bench) contribute their own top-level keys.
    merge_hotpath(out_dir, payload)

    epoch_speedup = payload["decision_epoch_us"]["speedup"]["median"]
    assert epoch_speedup >= MIN_SPEEDUP, (
        f"decision-epoch speedup below the {MIN_SPEEDUP:.1f}x gate in the "
        f"median round: {payload['decision_epoch_us']}; rerun on a quiet "
        "machine or set REPRO_BENCH_MIN_SPEEDUP"
    )
    train_step = payload["train_step_ms"]
    assert train_step["speedup"]["median"] >= 1.0, train_step
    optim_step = payload["optim_step_us"]
    assert optim_step["speedup"]["median"] >= 1.0, optim_step
