"""Multi-layer perceptron built from Dense layers.

Used for the Sub-Q networks of the global tier (one hidden layer of 128
ELUs plus a linear output, per the paper), the flat Q-network ablation,
and the autoencoder's encoder and decoder.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.nn.activations import Activation
from repro.nn.layers import Dense, Module, as_batch


class MLP(Module):
    """Feed-forward network ``Dense -> ... -> Dense``.

    Parameters
    ----------
    layer_sizes:
        Widths including input and output, e.g. ``[8, 128, 1]``.
    hidden_activation:
        Activation for all hidden layers (paper: ELU).
    output_activation:
        Activation for the final layer (paper: linear Q output).
    rng:
        Generator for weight initialization.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        hidden_activation: str | Activation = "elu",
        output_activation: str | Activation = "identity",
        rng: np.random.Generator | None = None,
        name: str = "mlp",
    ) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output widths")
        if rng is None:
            rng = np.random.default_rng(0)
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.layers: list[Dense] = []
        sizes = self.layer_sizes
        for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
            is_last = i == len(self.layer_sizes) - 2
            act = output_activation if is_last else hidden_activation
            self.layers.append(
                Dense(fan_in, fan_out, activation=act, rng=rng, name=f"{name}.{i}")
            )

    @property
    def in_features(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_features(self) -> int:
        return self.layer_sizes[-1]

    def forward(
        self, x: np.ndarray, spans: Sequence[slice] | None = None
    ) -> tuple[np.ndarray, list[dict[str, Any]]]:
        """Run a batch through the network; returns ``(output, caches)``.

        ``spans``, row ranges that partition the batch, give each range
        its own products (see :meth:`Dense.forward`): every span's rows
        come out bit for bit a separate forward of those rows.
        """
        caches: list[dict[str, Any]] = []
        out = as_batch(x)
        for layer in self.layers:
            out, cache = layer.forward(out, spans)
            caches.append(cache)
        return out, caches

    def backward(
        self,
        dy: np.ndarray,
        caches: list[dict[str, Any]],
        spans: Sequence[slice] | None = None,
        input_grad: bool = True,
    ) -> np.ndarray | None:
        """Backprop a batch; accumulates grads; returns ``dL/dx``.

        Pass the ``spans`` the forward ran with. ``input_grad=False``
        skips the first layer's input gradient and returns ``None``.
        """
        grad = as_batch(dy)
        for i in range(len(self.layers) - 1, -1, -1):
            layer_input_grad = input_grad or i > 0
            grad = self.layers[i].backward(grad, caches[i], spans, layer_input_grad)
        return grad

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference without building backward caches.

        Computes exactly the arithmetic of :meth:`forward` (so results
        are bit-identical) but skips the per-layer cache dicts and input
        re-validation — the decision-epoch hot path calls this at batch
        sizes where that Python overhead, not the GEMMs, dominates.
        """
        out = as_batch(x)
        if out.shape[-1] != self.in_features:
            raise ValueError(
                f"input width {out.shape[-1]} != layer in_features {self.in_features}"
            )
        for layer in self.layers:
            out = out @ layer.weight.value
            out += layer.bias.value
            out = layer.activation.forward(out)
        return out

    def share_with(self, other: "MLP") -> None:
        """Share all layer parameters with ``other`` (weight sharing)."""
        if self.layer_sizes != other.layer_sizes:
            raise ValueError("cannot share weights between differently-shaped MLPs")
        for mine, theirs in zip(self.layers, other.layers):
            mine.share_with(theirs)
