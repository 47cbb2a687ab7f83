"""The paper's deep Q-network: autoencoder + weight-shared Sub-Q (Fig. 6).

For estimating the Q values of allocating a job to the servers in group
``k``, the Sub-Q network consumes

    [ raw state of group k  |  encoded states of all other groups  |  job ]

so the target group's own state is seen at full resolution while the rest
of the cluster is compressed by the autoencoder — "the dimension
difference ... reflects the importance of the targeting server group's
own state".

Weight sharing is literal: there is exactly *one* autoencoder and *one*
Sub-Q MLP, applied once per group. Any training sample therefore trains
the (shared) Sub-Q regardless of which group its action lies in, and the
parameter count is independent of K — the two benefits the paper claims.
"""

from __future__ import annotations

import numpy as np

from repro.core.state import StateEncoder
from repro.nn.autoencoder import Autoencoder
from repro.nn.layers import Module
from repro.nn.mlp import MLP
from repro.nn.optim import Adam
from repro.obs import telemetry as obs


def check_batch(
    states: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    num_actions: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A minibatch as float states, int actions and float targets; raises
    ``ValueError`` unless the batch is not empty, there is one action and
    one target per state, and every action lies in ``[0, num_actions)``."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    actions = np.asarray(actions, dtype=np.int64).reshape(-1)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    n = states.shape[0]
    if actions.shape[0] != n or targets.shape[0] != n:
        raise ValueError(
            f"batch size mismatch: {n} states, {actions.shape[0]} actions, "
            f"{targets.shape[0]} targets"
        )
    if n == 0:
        raise ValueError("a minibatch needs at least one sample")
    low, high = actions.min(), actions.max()
    if low < 0 or high >= num_actions:
        raise ValueError(
            f"actions must lie in [0, {num_actions}), got {low} to {high}"
        )
    return states, actions, targets


def loss_terms(
    err: np.ndarray, huber_delta: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample chosen-action loss (squared error, or Huber) and its
    derivative."""
    if huber_delta is None:
        return err**2, 2.0 * err
    abs_err = np.abs(err)
    quad = np.minimum(abs_err, huber_delta)
    terms = 0.5 * quad**2 + huber_delta * (abs_err - quad)
    return terms, np.clip(err, -huber_delta, huber_delta)


class FlatQNetwork(Module):
    """The paper's strawman: one plain feed-forward network over the full
    state with M outputs ("a conventional feed-forward neural network to
    directly output Q value estimates").

    Duck-type compatible with :class:`HierarchicalQNetwork` (predict /
    q_values / train_step / make_optimizer / clone), so the ablation bench
    can swap it into :class:`~repro.core.global_tier.DRLGlobalBroker`.
    """

    def __init__(
        self,
        encoder: StateEncoder,
        hidden: tuple[int, ...] = (128,),
        rng: np.random.Generator | None = None,
    ) -> None:
        if rng is None:
            rng = np.random.default_rng(0)
        self.encoder = encoder
        self.num_actions = encoder.num_servers
        self.hidden = tuple(hidden)
        self.net = MLP(
            [encoder.state_dim, *hidden, self.num_actions],
            hidden_activation="elu",
            output_activation="identity",
            rng=rng,
            name="flatq",
        )

    def predict(self, states: np.ndarray) -> np.ndarray:
        """Q-value estimates for all M actions; shape ``(batch, M)``."""
        return self.net.predict(states)

    def q_values(self, state: np.ndarray) -> np.ndarray:
        """Q-vector for a single state; shape ``(M,)``."""
        return self.net.predict(state[None, :])[0]

    def make_optimizer(self, lr: float = 1e-3) -> Adam:
        return Adam(self.parameters(), lr=lr)

    def train_step(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        targets: np.ndarray,
        optimizer: Adam,
        max_grad_norm: float | None = 10.0,
        huber_delta: float | None = None,
    ) -> float:
        """Minibatch regression of the chosen-action outputs to ``targets``."""
        states, actions, targets = check_batch(
            states, actions, targets, self.num_actions
        )
        n = states.shape[0]
        q, caches = self.net.forward(states)
        rows = np.arange(n)
        terms, derr = loss_terms(q[rows, actions] - targets, huber_delta)
        dq = np.zeros_like(q)
        dq[rows, actions] = derr / n
        optimizer.zero_grad()
        self.net.backward(dq, caches, input_grad=False)
        if max_grad_norm is not None:
            optimizer.clip_grad_norm(max_grad_norm)
        optimizer.step()
        return float(np.sum(terms)) / n

    def pretrain_autoencoder(self, states: np.ndarray, **kwargs) -> list[float]:
        """No autoencoder in the flat architecture; offline phase no-op."""
        return []

    def clone(self, rng: np.random.Generator | None = None) -> "FlatQNetwork":
        twin = FlatQNetwork(
            self.encoder,
            hidden=self.hidden,
            rng=rng if rng is not None else np.random.default_rng(0),
        )
        twin.load_state_dict(self.state_dict())
        return twin

    def describe(self) -> dict:
        """Architecture fingerprint (plain data, for checkpoint metadata)."""
        return {
            "kind": "flat",
            "state_dim": self.encoder.state_dim,
            "num_actions": self.num_actions,
            "hidden": list(self.hidden),
            "num_parameters": self.num_parameters(),
        }


class HierarchicalQNetwork(Module):
    """Q(s, a) estimator over all M server actions.

    Parameters
    ----------
    encoder:
        The state encoder (provides the group geometry).
    autoencoder_hidden:
        Encoder widths of the shared autoencoder (paper: 30, 15).
    subq_hidden:
        Hidden widths of the shared Sub-Q network (paper: one layer of
        128 ELUs) followed by a linear output with one unit per server in
        a group.
    """

    def __init__(
        self,
        encoder: StateEncoder,
        autoencoder_hidden: tuple[int, ...] = (30, 15),
        subq_hidden: tuple[int, ...] = (128,),
        rng: np.random.Generator | None = None,
    ) -> None:
        if rng is None:
            rng = np.random.default_rng(0)
        self.encoder = encoder
        self.num_groups = encoder.num_groups
        self.group_dim = encoder.group_dim
        self.group_size = encoder.group_size
        self.job_dim = encoder.job_dim
        self.num_actions = encoder.num_servers

        self.autoencoder = Autoencoder(
            self.group_dim, autoencoder_hidden, activation="elu", rng=rng
        )
        self.code_dim = self.autoencoder.code_dim
        subq_in = self.group_dim + (self.num_groups - 1) * self.code_dim + self.job_dim
        self.subq_in = subq_in
        self.subq = MLP(
            [subq_in, *subq_hidden, self.group_size],
            hidden_activation="elu",
            output_activation="identity",
            rng=rng,
            name="subq",
        )
        # Row k lists the *other* groups in k's cyclic order; used to gather
        # all K Sub-Q inputs in one vectorized assembly.
        self._other_index = np.array(
            [self._other_groups(k) for k in range(self.num_groups)], dtype=np.intp
        ).reshape(self.num_groups, self.num_groups - 1)

    # ------------------------------------------------------------------
    # Input assembly
    # ------------------------------------------------------------------

    def _other_groups(self, k: int) -> list[int]:
        """The other groups in a fixed cyclic order starting after k.

        A deterministic, k-relative order keeps the shared Sub-Q's input
        layout consistent across groups.
        """
        return [(k + offset) % self.num_groups for offset in range(1, self.num_groups)]

    def _encode_all(self, groups: np.ndarray) -> np.ndarray:
        """Codes for every group: shape (K, batch, code_dim)."""
        batch = groups.shape[1]
        flat = groups.reshape(-1, self.group_dim)
        codes = self.autoencoder.encode(flat)
        return codes.reshape(self.num_groups, batch, self.code_dim)

    def _assemble_all(
        self, groups: np.ndarray, codes: np.ndarray, jobs: np.ndarray
    ) -> np.ndarray:
        """All K Sub-Q input blocks at once: shape ``(K, batch, subq_in)``.

        Row ``(k, i)`` holds exactly the vector the per-group loop
        reference in ``tests/helpers.py`` concatenates for group ``k``
        and sample ``i``, built by slice assignment into one
        preallocated array.
        """
        k, batch = self.num_groups, jobs.shape[0]
        out = np.empty((k, batch, self.subq_in))
        out[:, :, : self.group_dim] = groups
        if k > 1:
            others = codes[self._other_index]  # (K, K-1, batch, code_dim)
            out[:, :, self.group_dim : self.group_dim + (k - 1) * self.code_dim] = (
                others.transpose(0, 2, 1, 3).reshape(k, batch, -1)
            )
        out[:, :, self.subq_in - self.job_dim :] = jobs
        return out

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def predict(self, states: np.ndarray) -> np.ndarray:
        """Q-value estimates for all M actions; shape ``(batch, M)``.

        Weight sharing is exploited literally: the K Sub-Q inputs are
        stacked into one ``(K, batch, subq_in)`` tensor and pushed through
        the shared network in a *single* forward call. NumPy's stacked
        matmul issues one identically-shaped GEMM per group, so every
        group's Q block is bit-identical to the per-group loop reference
        in ``tests/helpers.py`` (a flattened ``(K*batch, subq_in)`` GEMM
        would not be: BLAS picks different kernels for different row
        counts, perturbing final ulps — see
        ``tests/core/test_qnetwork_equivalence.py``).
        """
        groups, jobs = self.encoder.split(states)
        codes = self._encode_all(groups)
        x = self._assemble_all(groups, codes, jobs)
        q = self.subq.predict(x)  # (K, batch, group_size)
        return q.transpose(1, 0, 2).reshape(jobs.shape[0], self.num_actions)

    def q_values(self, state: np.ndarray) -> np.ndarray:
        """Q-vector for a single state; shape ``(M,)``."""
        return self.predict(state[None, :])[0]

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def make_optimizer(self, lr: float = 1e-3) -> Adam:
        """Adam over the shared parameters (each shared tensor once)."""
        return Adam(self.parameters(), lr=lr)

    def train_step(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        targets: np.ndarray,
        optimizer: Adam,
        max_grad_norm: float | None = 10.0,
        huber_delta: float | None = None,
    ) -> float:
        """One minibatch update of Q(s, a) toward ``targets``.

        The regression error of each sample's *chosen-action* output is
        minimized (MSE, or Huber when ``huber_delta`` is given);
        gradients flow into the shared Sub-Q directly and into the shared
        autoencoder through the code inputs of the non-target groups.
        Returns the minibatch loss.

        This is the batched fast path: the shared encoder runs one
        stacked ``(K, batch, group_dim)`` forward and one stacked
        backward (instead of K of each), and the Sub-Q inputs for every
        group come from a single vectorized assembly. The minibatch is
        sorted once by action group, stably, so each group's samples
        form one row span in their original order, and the shared Sub-Q
        runs once over the sorted batch with one product per span and
        layer: the products keep the shapes of the per-group loop
        reference in ``tests/helpers.py``, which makes the two paths bit
        for bit the same. Everything elementwise (bias, activation and
        its derivative, loss terms, dL/dQ) runs once over the batch; the
        per-group loss sums are added in group order; and each code
        gradient is scattered back once, as ``0 + dx``, to the encoder
        row that produced it.
        """
        with obs.get().span("qnet.train_step"):
            states, actions, targets = check_batch(
                states, actions, targets, self.num_actions
            )
            n = states.shape[0]
            groups, jobs = self.encoder.split(states)

            # One stacked forward through the shared encoder; slice [k] of
            # the caches is exactly the cache a per-group forward would
            # produce.
            codes, enc_caches = self.autoencoder.encode_with_cache(groups)
            x_all = self._assemble_all(groups, codes, jobs)

            # Sorted row r is sample order[r], whose action lies in group
            # owner[r]; group k's samples are the rows of its span.
            group_ids = actions // self.group_size
            order = np.argsort(group_ids, kind="stable")
            owner = group_ids[order]
            spans, start = [], 0
            for count in np.bincount(group_ids, minlength=self.num_groups).tolist():
                if count:
                    spans.append(slice(start, start + count))
                    start += count

            optimizer.zero_grad()
            q, caches = self.subq.forward(x_all[owner, order], spans)
            rows = np.arange(n)
            local = actions[order] - owner * self.group_size
            terms, derr = loss_terms(q[rows, local] - targets[order], huber_delta)
            total_loss = 0.0
            for span in spans:
                total_loss += float(terms[span].sum())
            dq = np.zeros(q.shape)
            dq[rows, local] = derr / n
            # With one group no code feeds the Sub-Q, so nothing reads
            # its input gradient.
            dx = self.subq.backward(dq, caches, spans, self.num_groups > 1)

            if self.num_groups > 1:
                # Split dx into [raw g_k | other codes | job] and route
                # each code block to the encoder row that produced it:
                # block j of a group-k row is the code of group
                # _other_index[k, j] for the same sample.
                dcodes = np.zeros(codes.shape)
                others = self._other_index[owner]
                offset = self.group_dim
                for j in range(self.num_groups - 1):
                    block = dx[:, offset : offset + self.code_dim]
                    dcodes[others[:, j], order] += block
                    offset += self.code_dim
                self.autoencoder.encoder_backward(dcodes, enc_caches)

            if max_grad_norm is not None:
                optimizer.clip_grad_norm(max_grad_norm)
            optimizer.step()
            return total_loss / n

    def clone(self, rng: np.random.Generator | None = None) -> "HierarchicalQNetwork":
        """Independent copy with identical weights (same encoder geometry)."""
        twin = HierarchicalQNetwork(
            self.encoder,
            autoencoder_hidden=tuple(
                layer.out_features for layer in self.autoencoder.encoder.layers
            ),
            subq_hidden=tuple(self.subq.layer_sizes[1:-1]),
            rng=rng if rng is not None else np.random.default_rng(0),
        )
        twin.load_state_dict(self.state_dict())
        return twin

    def describe(self) -> dict:
        """Architecture fingerprint (plain data, for checkpoint metadata).

        Two networks with equal fingerprints have interchangeable
        :meth:`state_dict` snapshots; the checkpoint store records this
        alongside the weights so a geometry mismatch (e.g. a scenario
        whose fleet changed under a stale blob) fails with a clear
        message instead of a shape error deep inside ``load_state_dict``.
        """
        return {
            "kind": "hierarchical",
            "num_groups": self.num_groups,
            "group_dim": self.group_dim,
            "group_size": self.group_size,
            "job_dim": self.job_dim,
            "num_actions": self.num_actions,
            "code_dim": self.code_dim,
            "subq_in": self.subq_in,
            "subq_hidden": list(self.subq.layer_sizes[1:-1]),
            "autoencoder_hidden": [
                layer.out_features for layer in self.autoencoder.encoder.layers
            ],
            "num_parameters": self.num_parameters(),
        }

    def pretrain_autoencoder(
        self,
        states: np.ndarray,
        epochs: int = 20,
        batch_size: int = 64,
        lr: float = 1e-3,
        rng: np.random.Generator | None = None,
    ) -> list[float]:
        """Offline-phase reconstruction pre-training on group-state blocks.

        Every group block of every state is a training sample (weight
        sharing lets one autoencoder serve all groups).
        """
        groups, _ = self.encoder.split(np.atleast_2d(states))
        samples = groups.reshape(-1, self.group_dim)
        return self.autoencoder.fit(
            samples, epochs=epochs, batch_size=batch_size, lr=lr, rng=rng
        )
