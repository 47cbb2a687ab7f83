"""LSTM cell and sequence network with full backpropagation through time.

The paper's local-tier workload predictor is a three-layer network: an
input hidden layer, an LSTM cell layer (30 hidden units, weights shared
across all time steps), and an output hidden layer. It predicts the next
job inter-arrival time from the previous 35 inter-arrival times, is
trained with Adam, and initializes the input/output layer weights from
N(0, 1) with constant bias 0.1. All of that is reproduced here.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.nn.activations import Sigmoid, Tanh
from repro.nn.initializers import constant, normal, xavier_uniform, zeros
from repro.nn.layers import Dense, Module
from repro.nn.losses import MSELoss
from repro.nn.optim import Adam
from repro.nn.parameter import Parameter

_SIGMOID = Sigmoid()
_TANH = Tanh()


class LSTMCell(Module):
    """Single LSTM cell; the same weights are applied at every time step.

    Gate order in the stacked weight matrices is ``[i, f, o, g]`` (input,
    forget, output, candidate).
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator | None = None,
        forget_bias: float = 1.0,
        name: str = "lstm",
    ) -> None:
        if input_dim <= 0 or hidden_dim <= 0:
            raise ValueError(
                f"dims must be positive, got input={input_dim}, hidden={hidden_dim}"
            )
        if rng is None:
            rng = np.random.default_rng(0)
        self.input_dim = int(input_dim)
        self.hidden_dim = int(hidden_dim)
        h = self.hidden_dim
        self.w_x = Parameter(xavier_uniform(rng, input_dim, 4 * h), name=f"{name}.Wx")
        self.w_h = Parameter(xavier_uniform(rng, h, 4 * h), name=f"{name}.Wh")
        bias = zeros((4 * h,))
        # Positive initial forget bias is the standard trick to let gradients
        # flow early in training.
        bias[h : 2 * h] = forget_bias
        self.bias = Parameter(bias, name=f"{name}.b")

    def initial_state(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        """Zero hidden and cell states, as the paper initializes them."""
        return (
            np.zeros((batch, self.hidden_dim)),
            np.zeros((batch, self.hidden_dim)),
        )

    def step(
        self,
        x: np.ndarray,
        h_prev: np.ndarray,
        c_prev: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
        """One time step; returns ``(h, c, cache)``."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_dim:
            raise ValueError(
                f"input width {x.shape[1]} != cell input_dim {self.input_dim}"
            )
        hd = self.hidden_dim
        z = x @ self.w_x.value + h_prev @ self.w_h.value + self.bias.value
        gates = _SIGMOID.forward(z[:, : 3 * hd])
        i, f, o = gates[:, :hd], gates[:, hd : 2 * hd], gates[:, 2 * hd :]
        g = _TANH.forward(z[:, 3 * hd :])
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        cache = {
            "x": x, "h_prev": h_prev, "c_prev": c_prev,
            "i": i, "f": f, "o": o, "g": g, "c": c, "tanh_c": tanh_c,
        }
        return h, c, cache

    def step_backward(
        self,
        dh: np.ndarray,
        dc: np.ndarray,
        cache: dict[str, Any],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backprop one step; returns ``(dx, dh_prev, dc_prev)``.

        ``dh``/``dc`` are gradients flowing into this step's outputs (from
        the loss and from the following time step). Parameter gradients are
        accumulated in place.
        """
        i, f, o, g = cache["i"], cache["f"], cache["o"], cache["g"]
        tanh_c = cache["tanh_c"]
        dc_total = dc + dh * o * (1.0 - tanh_c**2)
        do = dh * tanh_c
        di = dc_total * g
        df = dc_total * cache["c_prev"]
        dg = dc_total * i
        # Through the gate nonlinearities.
        dz = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                do * o * (1.0 - o),
                dg * (1.0 - g**2),
            ],
            axis=1,
        )
        self.w_x.accumulate(cache["x"].T @ dz)
        self.w_h.accumulate(cache["h_prev"].T @ dz)
        self.bias.accumulate(dz.sum(axis=0))
        dx = dz @ self.w_x.value.T
        dh_prev = dz @ self.w_h.value.T
        dc_prev = dc_total * f
        return dx, dh_prev, dc_prev


class LSTMNetwork(Module):
    """Input dense layer -> LSTM cells (shared weights) -> output dense layer.

    Parameters
    ----------
    input_dim:
        Per-step feature width (1 for scalar inter-arrival times).
    hidden_dim:
        LSTM hidden units (paper: 30).
    output_dim:
        Prediction width (1 for scalar inter-arrival times).
    cell_input_dim:
        Width of the input hidden layer's output feeding the cell; defaults
        to ``hidden_dim``.
    init:
        ``"paper"`` initializes the input/output dense layers from N(0, 1)
        with bias 0.1 (Sec. VI-A); ``"xavier"`` uses Glorot-uniform with
        zero bias, which trains more stably and is the default.
    """

    def __init__(
        self,
        input_dim: int = 1,
        hidden_dim: int = 30,
        output_dim: int = 1,
        cell_input_dim: int | None = None,
        init: str = "xavier",
        rng: np.random.Generator | None = None,
    ) -> None:
        if rng is None:
            rng = np.random.default_rng(0)
        if init not in ("xavier", "paper"):
            raise ValueError(f"init must be 'xavier' or 'paper', got {init!r}")
        cell_input_dim = int(cell_input_dim or hidden_dim)
        self.input_dim = int(input_dim)
        self.hidden_dim = int(hidden_dim)
        self.output_dim = int(output_dim)
        self.input_layer = Dense(
            input_dim, cell_input_dim, activation="tanh", rng=rng, name="lstm.in"
        )
        self.cell = LSTMCell(cell_input_dim, hidden_dim, rng=rng)
        self.output_layer = Dense(
            hidden_dim, output_dim, activation="identity", rng=rng, name="lstm.out"
        )
        if init == "paper":
            # Written into the layers' arrays, never rebinding them (see
            # repro.nn.parameter).
            self.input_layer.weight.value[...] = normal(
                rng, (input_dim, cell_input_dim), mean=0.0, std=1.0
            )
            self.input_layer.bias.value[...] = constant((cell_input_dim,), 0.1)
            self.output_layer.weight.value[...] = normal(
                rng, (hidden_dim, output_dim), mean=0.0, std=1.0
            )
            self.output_layer.bias.value[...] = constant((output_dim,), 0.1)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict[str, Any]]:
        """Run a batch of sequences ``(batch, T, input_dim)``.

        Returns the prediction from the final time step, shape
        ``(batch, output_dim)``, plus caches for :meth:`backward`.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:  # (batch, T) scalar sequences
            x = x[:, :, None]
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ValueError(
                f"expected (batch, T, {self.input_dim}) input, got shape {x.shape}"
            )
        batch, steps, _ = x.shape
        if steps < 1:
            raise ValueError("sequence length must be at least 1")
        # The input layer sees every step on its own, so it runs once over
        # the (steps, batch, input_dim) stack: numpy's batched matmul makes
        # one product per step, each bit for bit the per-step product.
        inputs, in_cache = self.input_layer.forward(x.transpose(1, 0, 2))
        h, c = self.cell.initial_state(batch)
        cell_caches: list[dict[str, Any]] = []
        for t in range(steps):
            h, c, cell_cache = self.cell.step(inputs[t], h, c)
            cell_caches.append(cell_cache)
        y, out_cache = self.output_layer.forward(h)
        caches = {
            "in": in_cache,
            "cell": cell_caches,
            "out": out_cache,
            "batch": batch,
            "steps": steps,
        }
        return y, caches

    def backward(self, dy: np.ndarray, caches: dict[str, Any]) -> None:
        """Full BPTT from the final-step prediction gradient ``dy``."""
        dh = self.output_layer.backward(dy, caches["out"])
        dc = np.zeros((caches["batch"], self.hidden_dim))
        in_cache = caches["in"]
        d_inputs = np.empty_like(in_cache["y"])
        for t in range(caches["steps"] - 1, -1, -1):
            d_inputs[t], dh, dc = self.cell.step_backward(dh, dc, caches["cell"][t])
        # The input layer after the recurrence: its gradients are added in
        # the recurrence's step order (last step first), and nothing needs
        # the gradient with respect to the input sequence.
        dz = d_inputs * self.input_layer.activation.derivative(
            in_cache["z"], in_cache["y"]
        )
        dw = np.matmul(np.swapaxes(in_cache["x"], 1, 2), dz)
        db = dz.sum(axis=1)
        weight, bias = self.input_layer.weight, self.input_layer.bias
        for t in range(caches["steps"] - 1, -1, -1):
            weight.grad += dw[t]
            bias.grad += db[t]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference on a batch of sequences."""
        y, _ = self.forward(x)
        return y

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 30,
        batch_size: int = 32,
        lr: float = 1e-3,
        rng: np.random.Generator | None = None,
        max_grad_norm: float | None = 10.0,
    ) -> list[float]:
        """Train with Adam on (sequence -> next value) pairs.

        Returns per-epoch mean MSE losses.
        """
        if rng is None:
            rng = np.random.default_rng(0)
        x = np.asarray(x, dtype=np.float64)
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        if y.shape[0] != x.shape[0]:
            raise ValueError(f"x has {x.shape[0]} sequences but y has {y.shape[0]}")
        loss = MSELoss()
        optimizer = Adam(self.parameters(), lr=lr)
        history: list[float] = []
        n = x.shape[0]
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                pred, caches = self.forward(x[idx])
                epoch_loss += loss.forward(pred, y[idx])
                batches += 1
                optimizer.zero_grad()
                self.backward(loss.backward(pred, y[idx]), caches)
                if max_grad_norm is not None:
                    optimizer.clip_grad_norm(max_grad_norm)
                optimizer.step()
            history.append(epoch_loss / max(batches, 1))
        return history
