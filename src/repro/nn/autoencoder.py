"""Autoencoder used by the global tier to compress server-group states.

The paper builds the encoder from two fully-connected ELU layers of 30 and
15 neurons; the decoder mirrors it. ``encode`` produces the low-dimensional
representation ``g_bar`` that the Sub-Q networks consume for *other*
groups, and the whole autoencoder can be pre-trained on reconstruction
loss during the offline phase.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.nn.losses import MSELoss
from repro.nn.mlp import MLP
from repro.nn.layers import Module
from repro.nn.optim import Adam


class Autoencoder(Module):
    """Symmetric autoencoder: ``input -> hidden... -> code -> ... -> input``.

    Parameters
    ----------
    input_dim:
        Width of the raw group state.
    hidden_sizes:
        Encoder widths; the last entry is the code dimension. The paper
        uses ``(30, 15)``.
    activation:
        Hidden activation (paper: ELU).
    """

    def __init__(
        self,
        input_dim: int,
        hidden_sizes: Sequence[int] = (30, 15),
        activation: str = "elu",
        rng: np.random.Generator | None = None,
        name: str = "ae",
    ) -> None:
        if input_dim <= 0:
            raise ValueError(f"input_dim must be positive, got {input_dim}")
        if not hidden_sizes:
            raise ValueError("hidden_sizes must be non-empty")
        if rng is None:
            rng = np.random.default_rng(0)
        self.input_dim = int(input_dim)
        self.code_dim = int(hidden_sizes[-1])
        encoder_sizes = [input_dim, *hidden_sizes]
        decoder_sizes = list(reversed(encoder_sizes))
        # The code layer itself is activated (it feeds the Sub-Q networks);
        # the reconstruction output is linear.
        self.encoder = MLP(
            encoder_sizes,
            hidden_activation=activation,
            output_activation=activation,
            rng=rng,
            name=f"{name}.enc",
        )
        self.decoder = MLP(
            decoder_sizes,
            hidden_activation=activation,
            output_activation="identity",
            rng=rng,
            name=f"{name}.dec",
        )

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Map raw states ``(batch, input_dim)`` to ``(batch, code_dim)`` codes."""
        return self.encoder.predict(x)

    def encode_with_cache(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, list[dict[str, Any]]]:
        """Like :meth:`encode` but returns the caches needed for backprop."""
        return self.encoder.forward(x)

    def encoder_backward(
        self, dcode: np.ndarray, caches: list[dict[str, Any]]
    ) -> None:
        """Backprop through the encoder only (used when Q-loss flows into
        codes), accumulating its gradients. The gradient with respect to
        the raw states is not computed: nothing reads it."""
        self.encoder.backward(dcode, caches, input_grad=False)

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        """Encode then decode."""
        return self.decoder.predict(self.encode(x))

    def reconstruction_loss(self, x: np.ndarray) -> float:
        """Mean-squared reconstruction error over a batch."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return MSELoss().forward(self.reconstruct(x), x)

    def share_with(self, other: "Autoencoder") -> None:
        """Share encoder and decoder parameters with ``other``."""
        self.encoder.share_with(other.encoder)
        self.decoder.share_with(other.decoder)

    def fit(
        self,
        x: np.ndarray,
        epochs: int = 50,
        batch_size: int = 64,
        lr: float = 1e-3,
        rng: np.random.Generator | None = None,
    ) -> list[float]:
        """Pre-train on reconstruction loss; returns per-epoch losses."""
        if rng is None:
            rng = np.random.default_rng(0)
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        loss = MSELoss()
        optimizer = Adam(self.parameters(), lr=lr)
        history: list[float] = []
        n = x.shape[0]
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, n, batch_size):
                batch = x[order[start : start + batch_size]]
                code, enc_caches = self.encoder.forward(batch)
                recon, dec_caches = self.decoder.forward(code)
                epoch_loss += loss.forward(recon, batch)
                batches += 1
                optimizer.zero_grad()
                dcode = self.decoder.backward(loss.backward(recon, batch), dec_caches)
                self.encoder.backward(dcode, enc_caches, input_grad=False)
                optimizer.step()
            history.append(epoch_loss / max(batches, 1))
        return history
