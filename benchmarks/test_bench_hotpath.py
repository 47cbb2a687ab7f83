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
* end-to-end DRL simulation throughput in jobs/sec.

Results merge into ``BENCH_hotpath.json`` (the perf trajectory file) in
the bench output directory.
The acceptance gate asserts the decision-epoch speedup at M=30 / K=3;
``REPRO_BENCH_MIN_SPEEDUP`` relaxes it for noisy shared runners.

Scale knobs: ``REPRO_BENCH_HOTPATH_ITERS`` (epoch-timing iterations,
default 2000), ``REPRO_BENCH_HOTPATH_JOBS`` (end-to-end trace length,
default 1500).
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

ITERS = int(os.environ.get("REPRO_BENCH_HOTPATH_ITERS", "2000"))
E2E_JOBS = int(os.environ.get("REPRO_BENCH_HOTPATH_JOBS", "1500"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))

M, K = 30, 3
BATCH = 32


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
        q_k, _ = qnet.subq.forward(qnet._assemble(k, groups, codes, jobs))
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
    return qnet.train_step_loop(states, actions, targets, qnet._bench_opt)


def fast_train_minibatch(qnet, memory, rng, beta=0.5):
    states, actions, rewards, next_states, taus = memory.sample_arrays(BATCH, rng)
    next_max = qnet.predict(next_states).max(axis=1)
    targets = rewards + np.exp(-beta * taus) * next_max
    return qnet.train_step(states, actions, targets, qnet._bench_opt)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def timed(fn, iters: int, reps: int = 5) -> float:
    """Best-of-``reps`` mean seconds per call (noise-resistant on shared
    single-core runners)."""
    fn()  # warm caches / allocators
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best


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

    fast_s = timed(fast_epoch, ITERS)
    loop_s = timed(loop_epoch, ITERS)
    if loop_s / fast_s < MIN_SPEEDUP:
        # One re-measure before judging: a noisy burst on a busy shared
        # core shouldn't fail the gate. Both sides keep their best (min)
        # timing — the standard noise-robust estimator.
        fast_s = min(fast_s, timed(fast_epoch, ITERS))
        loop_s = min(loop_s, timed(loop_epoch, ITERS))
    epoch_speedup = loop_s / fast_s

    # Components (fewer iters: these are sub-measurements for the table).
    sub = max(ITERS // 2, 200)
    enc_fast = timed(lambda: enc.encode(cluster, probe), sub)
    enc_loop = timed(lambda: legacy_encode(cluster, probe, enc), sub)
    q_fast = timed(lambda: qnet.q_values(state), sub)
    q_loop = timed(lambda: legacy_predict(qnet, state[None]), sub)

    # Train step (includes replay sampling and target construction).
    train_iters = max(ITERS // 20, 20)
    qnet._bench_opt = qnet.make_optimizer()
    train_fast = timed(
        lambda: fast_train_minibatch(qnet, memory, rng), train_iters, reps=3
    )
    twin = qnet.clone()
    twin._bench_opt = twin.make_optimizer()
    train_loop = timed(
        lambda: legacy_train_minibatch(twin, memory, rng), train_iters, reps=3
    )
    if train_loop < train_fast:
        # Same noise relief as the epoch gate: re-time both, keep mins.
        train_fast = min(
            train_fast,
            timed(lambda: fast_train_minibatch(qnet, memory, rng), train_iters, reps=3),
        )
        train_loop = min(
            train_loop,
            timed(
                lambda: legacy_train_minibatch(twin, memory, rng),
                train_iters,
                reps=3,
            ),
        )

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
        "decision_epoch_us": {
            "fast": round(fast_s * 1e6, 2),
            "loop": round(loop_s * 1e6, 2),
            "speedup": round(epoch_speedup, 2),
        },
        "encode_us": {
            "fast": round(enc_fast * 1e6, 2),
            "loop": round(enc_loop * 1e6, 2),
            "speedup": round(enc_loop / enc_fast, 2),
        },
        "q_values_us": {
            "fast": round(q_fast * 1e6, 2),
            "loop": round(q_loop * 1e6, 2),
            "speedup": round(q_loop / q_fast, 2),
        },
        "train_step_ms": {
            "fast": round(train_fast * 1e3, 3),
            "loop": round(train_loop * 1e3, 3),
            "speedup": round(train_loop / train_fast, 2),
        },
        "drl_sim_jobs_per_sec": round(jobs_per_sec, 1),
        "e2e_jobs": E2E_JOBS,
    }
    # Merge over the existing trajectory file: other benches (e.g. the
    # federation-dispatch bench) contribute their own top-level keys.
    merge_hotpath(out_dir, payload)

    assert epoch_speedup >= MIN_SPEEDUP, (
        f"decision-epoch speedup {epoch_speedup:.2f}x below the "
        f"{MIN_SPEEDUP:.1f}x gate (fast {fast_s * 1e6:.1f} us vs loop "
        f"{loop_s * 1e6:.1f} us); rerun on a quiet machine or set "
        "REPRO_BENCH_MIN_SPEEDUP"
    )
    assert train_loop / train_fast >= 1.0
