"""ε-greedy action selection.

Both tiers of the paper select actions ε-greedily: with probability ε a
uniformly random action, otherwise the argmax of the current Q estimates.
Each caller owns its ε; the global tier's
:class:`~repro.core.global_tier.DRLGlobalBroker` anneals it toward a
floor as it learns.
"""

from __future__ import annotations

import numpy as np


def epsilon_greedy_choice(
    q_values: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Pick an action index ε-greedily from a vector of Q estimates.

    Ties at the maximum are broken uniformly at random so that identical
    initial Q-values do not bias toward low indices.

    Raises
    ------
    ValueError
        If ``q_values`` is empty, ``epsilon`` outside [0, 1], or the
        greedy branch finds no maximum because ``q_values`` holds a NaN.
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
    # The index rng.choice(best) would draw, from the same generator state.
    return int(best[rng.integers(best.size)])
