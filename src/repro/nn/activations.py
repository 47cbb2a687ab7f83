"""Elementwise activation functions with analytic derivatives.

The paper's Q-network uses Exponential Linear Units (ELUs); the LSTM uses
sigmoid gates and tanh candidates. Each activation exposes

* ``forward(z) -> y``
* ``derivative(z, y) -> dy/dz`` (given both the pre-activation ``z`` and the
  already-computed output ``y``, so implementations can use whichever is
  cheaper).
"""

from __future__ import annotations

import numpy as np


class Activation:
    """Base class for elementwise activations."""

    name = "base"

    def forward(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class Identity(Activation):
    """Linear activation: ``y = z``."""

    name = "identity"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return z

    def derivative(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.ones_like(z)


class ELU(Activation):
    """Exponential linear unit, the activation the paper's Q-network uses.

    ``y = z`` for ``z > 0`` and ``alpha * (exp(z) - 1)`` otherwise.
    """

    name = "elu"

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = float(alpha)

    def forward(self, z: np.ndarray) -> np.ndarray:
        # Branch-free split: expm1(min(z,0)) is exactly 0 for z >= 0 and
        # max(z,0) exactly 0 for z <= 0, so the sum equals the classic
        # where() formulation bit for bit (modulo the sign of zero) with
        # one fewer ufunc pass on the alpha == 1 hot path.
        neg = np.minimum(z, 0.0)
        np.expm1(neg, out=neg)
        if self.alpha != 1.0:
            neg *= self.alpha
        neg += np.maximum(z, 0.0)
        return neg

    def derivative(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        # For z <= 0, dy/dz = alpha * exp(z) = y + alpha.
        return np.where(z > 0.0, 1.0, y + self.alpha)


class Sigmoid(Activation):
    """Logistic sigmoid, numerically stable for large |z|."""

    name = "sigmoid"

    def forward(self, z: np.ndarray) -> np.ndarray:
        # The two-branch form in one pass: with e = exp(-|z|), 1 / (1 + e)
        # where z >= 0 and e / (1 + e) elsewhere, so exp never overflows and
        # each element sees the operations it saw under boolean masks, bit
        # for bit. min(z, -z) is -|z| but keeps a NaN's sign, as exp(z) does.
        e = np.negative(z)
        np.minimum(z, e, out=e)
        np.exp(e, out=e)
        out = np.where(z >= 0, 1.0, e)
        e += 1.0
        out /= e
        return out

    def derivative(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y * (1.0 - y)


class Tanh(Activation):
    """Hyperbolic tangent."""

    name = "tanh"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return np.tanh(z)

    def derivative(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return 1.0 - y * y


_REGISTRY: dict[str, type[Activation]] = {
    cls.name: cls for cls in (Identity, ELU, Sigmoid, Tanh)
}


def get_activation(name: str | Activation) -> Activation:
    """Resolve an activation by name (or pass an instance through).

    Raises
    ------
    KeyError
        If the name is unknown.
    """
    if isinstance(name, Activation):
        return name
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown activation {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[key]()
