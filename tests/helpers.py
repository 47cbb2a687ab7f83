"""Non-fixture test utilities: two fast protocols, a one-site run with
churn, a tariff or faults attached, a numerical gradient, the loop
references the fast paths must match bit for bit (the
per-group Sub-Q loop, the one-call ε-greedy choice, the per-array
optimizer, the per-step LSTM, the trace samplers' ``uniform()`` coin
and per-element jobs, the two-walk packing choice), and the one timer
behind every bench gate."""

from __future__ import annotations

import contextlib
import gc
import math
from time import perf_counter
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence
from unittest import mock

import numpy as np

import repro.workload.mixtures as mixtures
import repro.workload.synthetic as synthetic
from perfbench.stats import summarize
from repro.core.qnetwork import check_batch
from repro.harness.runner import PAPER_PROTOCOL, Protocol, RunResult
from repro.sim.federation import build_federation
from repro.sim.job import Job
from repro.workload.mixtures import _burst_on
from repro.workload.synthetic import _DAY_SECONDS, SyntheticTraceConfig

#: A protocol that trains nothing: tests that only need a system built.
NO_TRAINING = Protocol(pretrain=False, online_epochs=0, local_epochs=0)
#: One online and one local-tier epoch, without offline pre-training.
ONE_EPOCH = Protocol(pretrain=False, online_epochs=1, local_epochs=1)


def run_cluster(system, jobs, protocol=PAPER_PROTOCOL, faults=None, **site):
    """``run_system``'s one-site run with churn, a tariff or faults attached.

    ``site`` adds site arguments (``capacity_events``, ``tariff``) and
    ``faults`` is a :class:`~repro.faults.plan.SiteFaultPlan` or None:
    the single-cluster path a plain cell must match.
    """
    engine = build_federation(
        [system.site(name="cluster", record_every=protocol.record_every, **site)],
        faults=None if faults is None else [faults],
    )
    result = engine.run([[job.copy() for job in jobs]])
    return RunResult.from_run(system.name, result, engine.faults)


class _InOrder:
    """A stand-in generator whose ``choice`` picks ``0, 1, ..., size - 1``."""

    @staticmethod
    def choice(n, size, replace):
        return np.arange(size)


def stored_transitions(memory):
    """Every transition in a replay memory as five arrays, oldest first.

    :meth:`~repro.rl.replay.ReplayMemory.sample_arrays` with a generator
    that picks the logical indices in order.
    """
    return memory.sample_arrays(len(memory), _InOrder())


@contextlib.contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector; reference counting still frees."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


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


def loss_and_derr(
    err: np.ndarray, huber_delta: float | None
) -> tuple[float, np.ndarray]:
    """Summed chosen-action loss (MSE, or Huber) and its derivative."""
    if huber_delta is None:
        return float(np.sum(err**2)), 2.0 * err
    abs_err = np.abs(err)
    quad = np.minimum(abs_err, huber_delta)
    loss = float(np.sum(0.5 * quad**2 + huber_delta * (abs_err - quad)))
    return loss, np.clip(err, -huber_delta, huber_delta)


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
    states, actions, targets = check_batch(
        states, actions, targets, net.num_actions
    )
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
        clip_grad_norm_loop(net.parameters(), max_grad_norm)
    optimizer.step()
    return total_loss / n


def epsilon_greedy_choice(
    q_values: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """One ε-greedy choice from a Q-vector already computed: the oracle
    of ``explore_draw`` followed, on tails, by ``greedy_pick``.

    Ties at the maximum are broken uniformly at random.
    """
    q_values = np.asarray(q_values, dtype=np.float64)
    if q_values.ndim != 1 or q_values.size == 0:
        raise ValueError(
            f"q_values must be a non-empty vector, got shape {q_values.shape}"
        )
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if rng.uniform() < epsilon:
        return int(rng.integers(q_values.size))
    best = np.flatnonzero(q_values == q_values.max())
    if best.size == 0:
        nan_at = np.flatnonzero(np.isnan(q_values)).tolist()
        raise ValueError(f"q_values hold NaN at {nan_at}, so no action is greedy")
    return int(best[rng.integers(best.size)])


# ----------------------------------------------------------------------
# Per-array optimizer: the oracle of the packed one in repro.nn.optim
# ----------------------------------------------------------------------


def clip_grad_norm_loop(parameters, max_norm: float) -> float:
    """Gradient clipping one parameter array at a time; returns the
    pre-clipping global norm."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total_sq = sum(float(np.sum(p.grad**2)) for p in parameters)
    total = float(np.sqrt(total_sq))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in parameters:
            p.grad *= scale
    return total


class LoopAdam:
    """Adam one parameter array at a time, with its own moment arrays.

    It has the packed :class:`repro.nn.optim.Adam`'s interface
    (``parameters``, ``step``, ``zero_grad``, ``clip_grad_norm``), so it
    can stand in for it inside a fit loop or a train step, and it works
    on packed and unpacked parameters alike.
    """

    def __init__(self, parameters, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.parameters = list({id(p): p for p in parameters}.values())
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p.value) for p in self.parameters]
        self.v = [np.zeros_like(p.value) for p in self.parameters]
        self.t = 0

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.grad.fill(0.0)

    def clip_grad_norm(self, max_norm: float) -> float:
        return clip_grad_norm_loop(self.parameters, max_norm)

    def step(self) -> None:
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.parameters, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def assert_same_adam(packed, oracle) -> None:
    """Weights, moments and step count of a packed ``Adam`` equal a
    :class:`LoopAdam`'s, bit for bit."""
    assert packed._t == oracle.t
    assert len(packed.parameters) == len(oracle.parameters)
    for mine, theirs in zip(packed.parameters, oracle.parameters):
        assert np.array_equal(mine.value, theirs.value), mine.name
    assert np.array_equal(packed._m, np.concatenate([m.ravel() for m in oracle.m]))
    assert np.array_equal(packed._v, np.concatenate([v.ravel() for v in oracle.v]))


def record_optimizers(monkeypatch, module, cls) -> list:
    """Make ``module.Adam`` build ``cls`` instances; returns the list each
    new instance is appended to."""
    made: list = []

    class Recording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(module, "Adam", Recording)
    return made


# ----------------------------------------------------------------------
# Per-step LSTM: the oracle of repro.nn.lstm's one-pass gates and
# hoisted input layer
# ----------------------------------------------------------------------


def sigmoid_masked(z: np.ndarray) -> np.ndarray:
    """The two-branch sigmoid: ``1 / (1 + exp(-z))`` where ``z >= 0``,
    ``exp(z) / (1 + exp(z))`` elsewhere."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lstm_step_loop(cell, x, h_prev, c_prev):
    """One cell step with one masked sigmoid per gate."""
    hd = cell.hidden_dim
    z = x @ cell.w_x.value + h_prev @ cell.w_h.value + cell.bias.value
    i = sigmoid_masked(z[:, :hd])
    f = sigmoid_masked(z[:, hd : 2 * hd])
    o = sigmoid_masked(z[:, 2 * hd : 3 * hd])
    g = np.tanh(z[:, 3 * hd :])
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    return o * tanh_c, c, (x, h_prev, c_prev, i, f, o, g, tanh_c)


def lstm_step_backward_loop(cell, dh, dc, cache):
    """Backprop of :func:`lstm_step_loop`; returns ``(dx, dh_prev, dc_prev)``."""
    x, h_prev, c_prev, i, f, o, g, tanh_c = cache
    dc_total = dc + dh * o * (1.0 - tanh_c**2)
    do = dh * tanh_c
    di = dc_total * g
    df = dc_total * c_prev
    dg = dc_total * i
    dz = np.concatenate(
        [
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            do * o * (1.0 - o),
            dg * (1.0 - g**2),
        ],
        axis=1,
    )
    cell.w_x.accumulate(x.T @ dz)
    cell.w_h.accumulate(h_prev.T @ dz)
    cell.bias.accumulate(dz.sum(axis=0))
    return dz @ cell.w_x.value.T, dz @ cell.w_h.value.T, dc_total * f


def lstm_forward_loop(net, x: np.ndarray):
    """``LSTMNetwork.forward`` with the input layer run step by step."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        x = x[:, :, None]
    batch, steps, _ = x.shape
    h, c = net.cell.initial_state(batch)
    in_caches, cell_caches = [], []
    for t in range(steps):
        xt, in_cache = net.input_layer.forward(x[:, t, :])
        h, c, cell_cache = lstm_step_loop(net.cell, xt, h, c)
        in_caches.append(in_cache)
        cell_caches.append(cell_cache)
    y, out_cache = net.output_layer.forward(h)
    caches = {
        "in": in_caches,
        "cell": cell_caches,
        "out": out_cache,
        "batch": batch,
        "steps": steps,
    }
    return y, caches


def lstm_backward_loop(net, dy: np.ndarray, caches) -> None:
    """BPTT of :func:`lstm_forward_loop`, the input layer inside the
    recurrence (each step's backward also computes its unused ``dx``)."""
    dh = net.output_layer.backward(dy, caches["out"])
    dc = np.zeros((caches["batch"], net.hidden_dim))
    for t in range(caches["steps"] - 1, -1, -1):
        dxt, dh, dc = lstm_step_backward_loop(net.cell, dh, dc, caches["cell"][t])
        net.input_layer.backward(dxt, caches["in"][t])


# ----------------------------------------------------------------------
# Trace samplers and packing: the oracles of repro.workload's
# ``random()`` coin and column-wise jobs, and of PackingBroker's one walk
# over the ledger's ``on`` row
# ----------------------------------------------------------------------


def sample_arrivals_loop(
    config: SyntheticTraceConfig, rng: np.random.Generator
) -> np.ndarray:
    """``_sample_arrivals`` with the ``uniform()`` coin and the mean gap
    divided out on every candidate."""
    base = config.base_rate
    amp = config.diurnal_amplitude
    burst_mult = config.burst_rate_multiplier
    duty = config.burst_on_mean / (config.burst_on_mean + config.burst_off_mean)
    mean_mult = 1.0 + duty * (burst_mult - 1.0)
    lam_max = base * (1.0 + amp) * burst_mult / mean_mult

    arrivals = np.empty(config.n_jobs)
    count = 0
    t = 0.0
    burst_on = False
    burst_switch = rng.exponential(config.burst_off_mean)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    while count < config.n_jobs:
        t += rng.exponential(1.0 / lam_max)
        while t >= burst_switch:
            burst_on = not burst_on
            mean = config.burst_on_mean if burst_on else config.burst_off_mean
            burst_switch += rng.exponential(mean)
        diurnal = 1.0 + amp * math.sin(2.0 * math.pi * t / _DAY_SECONDS + phase)
        rate = base * diurnal * (burst_mult if burst_on else 1.0) / mean_mult
        if rng.uniform() * lam_max <= rate:
            arrivals[count] = t
            count += 1
    return arrivals


def sample_coupled_arrivals_loop(
    config: SyntheticTraceConfig,
    rng: np.random.Generator,
    phase: float,
    shared_windows: tuple[tuple[float, float], ...],
    shared_duty: float,
    own_windows: tuple[tuple[float, float], ...],
    coupling: float,
) -> np.ndarray:
    """``_sample_coupled_arrivals`` with the ``uniform()`` coin and the
    mean gap divided out on every candidate."""
    base = config.base_rate
    amp = config.diurnal_amplitude
    mult = config.burst_rate_multiplier
    own_duty = config.burst_on_mean / (config.burst_on_mean + config.burst_off_mean)
    duty = coupling * shared_duty + (1.0 - coupling) * own_duty
    mean_mult = 1.0 + duty * (mult - 1.0)
    lam_max = base * (1.0 + amp) * mult / mean_mult

    arrivals = np.empty(config.n_jobs)
    count = 0
    t = 0.0
    si = oi = 0
    while count < config.n_jobs:
        t += rng.exponential(1.0 / lam_max)
        si, shared_on = _burst_on(shared_windows, si, t)
        oi, own_on = _burst_on(own_windows, oi, t)
        on_level = coupling * shared_on + (1.0 - coupling) * own_on
        burst = 1.0 + (mult - 1.0) * on_level
        diurnal = 1.0 + amp * math.sin(2.0 * math.pi * t / _DAY_SECONDS + phase)
        rate = base * diurnal * burst / mean_mult
        if rng.uniform() * lam_max <= rate:
            arrivals[count] = t
            count += 1
    return arrivals


def jobs_per_element(
    arrivals: np.ndarray,
    durations: np.ndarray,
    resources: np.ndarray,
    start_id: int = 0,
) -> list[Job]:
    """``_jobs_from_columns`` with one ``float()`` per array element."""
    return [
        Job(
            job_id=start_id + i,
            arrival_time=float(arrivals[i]),
            duration=float(durations[i]),
            resources=tuple(float(r) for r in resources[i]),
        )
        for i in range(len(arrivals))
    ]


@contextlib.contextmanager
def sampler_oracles() -> Iterator[None]:
    """Patch the oracles above in where the trace functions look them
    up, so ``generate_trace``, ``flash_crowd_jobs`` and
    ``correlated_traces`` run with the ``uniform()`` coin and
    per-element jobs."""
    with mock.patch.multiple(
        synthetic,
        _sample_arrivals=sample_arrivals_loop,
        _jobs_from_columns=jobs_per_element,
    ):
        with mock.patch.multiple(
            mixtures,
            _sample_coupled_arrivals=sample_coupled_arrivals_loop,
            _jobs_from_columns=jobs_per_element,
        ):
            yield


def packing_choice_loop(job: Job, cluster) -> int:
    """``PackingBroker.select_server`` reading each server's ``state``
    property, with a second walk for the servers that are not on."""
    awake = [s for s in cluster.servers if s.state.is_on]
    for server in awake:
        if not server.pending and server.fits(job):
            return server.server_id
    asleep = [s for s in cluster.servers if not s.state.is_on]
    if asleep and all(s.jobs_in_system > 0 for s in awake):
        return asleep[0].server_id
    if awake:
        return min(awake, key=lambda s: (s.jobs_in_system, s.server_id)).server_id
    return 0


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
    with gc_paused():
        for r in range(-1, rounds):  # round -1 is the warm-up
            for name in names[::-1] if r % 2 else names:
                work = arms[name]()
                start = perf_counter()
                result = work()
                elapsed = perf_counter() - start
                if r >= 0:
                    seconds[name].append(elapsed)
                    results[name] = result
    return Rounds(seconds, results)


def paired_ratio(num: Sequence[float], den: Sequence[float]) -> dict:
    """Median, quartiles and count of the per-round ratios ``num / den``."""
    return summarize([a / b for a, b in zip(num, den, strict=True)])
