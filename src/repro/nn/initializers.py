"""Weight initializers.

All initializers take an explicit :class:`numpy.random.Generator` so that
every network construction in the library is reproducible from a seed.
"""

from __future__ import annotations

import numpy as np


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialization for a ``(fan_in, fan_out)`` matrix."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError(
            f"fan_in and fan_out must be positive, got {fan_in}, {fan_out}"
        )
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def normal(
    rng: np.random.Generator,
    shape: tuple[int, ...],
    mean: float = 0.0,
    std: float = 1.0,
) -> np.ndarray:
    """Normal initialization; the paper uses N(0, 1) for the LSTM I/O layers."""
    if std < 0:
        raise ValueError(f"std must be non-negative, got {std}")
    return rng.normal(mean, std, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zeros initialization."""
    return np.zeros(shape, dtype=np.float64)


def constant(shape: tuple[int, ...], value: float) -> np.ndarray:
    """Constant initialization; the paper uses 0.1 for LSTM layer biases."""
    return np.full(shape, float(value), dtype=np.float64)
