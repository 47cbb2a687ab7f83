"""Loss functions with analytic gradients.

Each loss exposes ``forward(pred, target) -> float`` and
``backward(pred, target) -> dL/dpred`` where the gradient is averaged over
the batch (matching the mean-reduction of ``forward``).
"""

from __future__ import annotations

import numpy as np


def _prepare(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"pred shape {pred.shape} != target shape {target.shape}")
    return pred, target


class MSELoss:
    """Mean squared error ``mean((pred - target)^2)``."""

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        pred, target = _prepare(pred, target)
        return float(np.mean((pred - target) ** 2))

    def backward(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        pred, target = _prepare(pred, target)
        return 2.0 * (pred - target) / pred.size
