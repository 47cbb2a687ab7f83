"""Non-fixture test utilities: a numerical gradient, the per-group Sub-Q
loop reference the batched Q-network must match bit for bit, and the one
timer behind every bench gate."""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from perfbench.stats import summarize
from repro.core.qnetwork import check_batch, loss_and_derr
from repro.nn.optim import clip_grad_norm


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the scalar function ``f()`` w.r.t. ``x``.

    ``f`` must read the *current contents* of ``x`` (which is perturbed in
    place and restored).
    """
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def assemble(
    net,
    k: int,
    groups: np.ndarray,
    codes: np.ndarray,
    jobs: np.ndarray,
    sample_idx: np.ndarray | None = None,
) -> np.ndarray:
    """Build the Sub-Q_k input ``[raw g_k | codes of others | job]``."""
    idx = slice(None) if sample_idx is None else sample_idx
    parts = [groups[k][idx]]
    parts.extend(codes[other][idx] for other in net._other_groups(k))
    parts.append(jobs[idx])
    return np.concatenate(parts, axis=1)


def predict_loop(net, states: np.ndarray) -> np.ndarray:
    """``net.predict`` as K batch-sized Sub-Q passes, one per group."""
    groups, jobs = net.encoder.split(states)
    codes = net._encode_all(groups)
    out = np.empty((jobs.shape[0], net.num_actions))
    for k in range(net.num_groups):
        q_k = net.subq.predict(assemble(net, k, groups, codes, jobs))
        out[:, k * net.group_size : (k + 1) * net.group_size] = q_k
    return out


def train_step_loop(
    net,
    states: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    optimizer,
    max_grad_norm: float | None = 10.0,
    huber_delta: float | None = None,
) -> float:
    """``net.train_step`` with one encoder forward and backward per group."""
    states, actions, targets = check_batch(states, actions, targets)
    n = states.shape[0]
    groups, jobs = net.encoder.split(states)

    # Forward the shared encoder once per group, keeping caches so the
    # Q-loss can flow back into it.
    enc_caches: list[list[dict[str, Any]]] = []
    codes_list: list[np.ndarray] = []
    for k in range(net.num_groups):
        code_k, cache_k = net.autoencoder.encode_with_cache(groups[k])
        codes_list.append(code_k)
        enc_caches.append(cache_k)
    codes = np.stack(codes_list)

    net.zero_grad()
    total_loss = 0.0
    # dL/dcode accumulators per group (codes feed K-1 Sub-Q passes).
    dcodes = [np.zeros_like(codes[k]) for k in range(net.num_groups)]

    for k in range(net.num_groups):
        group_lo = k * net.group_size
        mask = (actions >= group_lo) & (actions < group_lo + net.group_size)
        sample_idx = np.flatnonzero(mask)
        if sample_idx.size == 0:
            continue
        x_k = assemble(net, k, groups, codes, jobs, sample_idx)
        q_k, caches = net.subq.forward(x_k)
        local = actions[sample_idx] - group_lo
        rows = np.arange(sample_idx.size)
        err = q_k[rows, local] - targets[sample_idx]
        group_loss, derr = loss_and_derr(err, huber_delta)
        total_loss += group_loss
        dq = np.zeros_like(q_k)
        dq[rows, local] = derr / n
        dx = net.subq.backward(dq, caches)
        # Split dx back into [raw g_k | other codes | job] and route the
        # code gradients to their producing encoder passes.
        offset = net.group_dim
        for other in net._other_groups(k):
            dcode = dx[:, offset : offset + net.code_dim]
            dcodes[other][sample_idx] += dcode
            offset += net.code_dim

    for k in range(net.num_groups):
        if np.any(dcodes[k]):
            net.autoencoder.encoder_backward(dcodes[k], enc_caches[k])

    if max_grad_norm is not None:
        clip_grad_norm(net.parameters(), max_grad_norm)
    optimizer.step()
    return total_loss / n


class Rounds(NamedTuple):
    """Each arm's seconds per round, in order, and its last round's result."""

    seconds: dict[str, list[float]]
    results: dict[str, Any]

    def summary(self, arm: str) -> dict:
        """Median, quartiles and count of ``arm``'s round times."""
        return summarize(self.seconds[arm])


def interleaved(
    arms: Mapping[str, Callable[[], Callable[[], Any]]], rounds: int
) -> Rounds:
    """Time each arm once per round, after an untimed warm-up round.

    An arm is a setup callable returning the work to time, so setup stays
    untimed. The warm-up absorbs cold caches and lazy imports. Each round
    runs the arms in the reverse order of the round before, so drift in
    machine speed favours no arm, and the garbage collector stays paused,
    so no arm pays for another's garbage.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    names = list(arms)
    seconds: dict[str, list[float]] = {name: [] for name in names}
    results: dict[str, Any] = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for r in range(-1, rounds):  # round -1 is the warm-up
            for name in names[::-1] if r % 2 else names:
                work = arms[name]()
                start = perf_counter()
                result = work()
                elapsed = perf_counter() - start
                if r >= 0:
                    seconds[name].append(elapsed)
                    results[name] = result
    finally:
        if gc_was_enabled:
            gc.enable()
    return Rounds(seconds, results)


def paired_ratio(num: Sequence[float], den: Sequence[float]) -> dict:
    """Median, quartiles and count of the per-round ratios ``num / den``."""
    return summarize([a / b for a, b in zip(num, den, strict=True)])
