"""Elementwise activation functions with analytic derivatives.

The paper's Q-network uses Exponential Linear Units (ELUs); the LSTM uses
sigmoid gates and tanh candidates. Each activation exposes

* ``forward(z) -> y``
* ``derivative(z, y) -> dy/dz`` (given both the pre-activation ``z`` and the
  already-computed output ``y``, so implementations can use whichever is
  cheaper). It returns a fresh array, which the caller may overwrite:
  ``Dense.backward`` scales it in place by the incoming gradient.

No activation picks between its branches with ``np.where``: each choice
is folded into a ``minimum`` or ``maximum`` call that gives the same bits.
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

    ``y = z`` for ``z > 0`` and ``exp(z) - 1`` otherwise.
    """

    name = "elu"

    def forward(self, z: np.ndarray) -> np.ndarray:
        # Branch-free split: expm1(min(z,0)) is exactly 0 for z >= 0 and
        # max(z,0) exactly 0 for z <= 0, so the sum equals the two-branch
        # formulation bit for bit (modulo the sign of zero).
        neg = np.minimum(z, 0.0)
        np.expm1(neg, out=neg)
        neg += np.maximum(z, 0.0)
        return neg

    def derivative(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        # 1 for z > 0 and exp(z) = y + 1 elsewhere, in one min: y = z > 0
        # makes y + 1 >= 1 in the first branch, y = expm1(z) <= 0 makes
        # it <= 1 in the second, and a NaN passes through as y + 1.
        d = y + 1.0
        np.minimum(d, 1.0, out=d)
        return d


class Sigmoid(Activation):
    """Logistic sigmoid, numerically stable for large |z|."""

    name = "sigmoid"

    def forward(self, z: np.ndarray) -> np.ndarray:
        # The two-branch form in one pass: with e = exp(-|z|), 1 / (1 + e)
        # where z >= 0 and e / (1 + e) elsewhere, so exp never overflows and
        # each element sees the operations it saw under boolean masks, bit
        # for bit. min(z, -z) is -|z| but keeps a NaN's sign, as exp(z) does.
        # The numerator is max(e, z >= 0): e <= 1 where z >= 0, and the
        # mask's 0 never exceeds e (nor replaces a NaN) elsewhere.
        e = np.negative(z)
        np.minimum(z, e, out=e)
        np.exp(e, out=e)
        out = np.maximum(e, z >= 0)
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
