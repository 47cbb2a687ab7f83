"""ε-greedy action selection, as two draws.

Both tiers of the paper select actions ε-greedily: with probability ε a
uniformly random action, otherwise the argmax of the current Q estimates.
The choice is split in two so that a caller evaluates its Q estimates
only when it acts greedily: :func:`explore_draw` flips the exploration
coin and, on heads, draws the random action; :func:`greedy_pick` takes
the argmax. Called in that order on one generator, they make the same
draws, in the same order, as one combined ε-greedy choice would.
Each caller owns its ε; the global tier's
:class:`~repro.core.global_tier.DRLGlobalBroker` anneals it toward a
floor as it learns.
"""

from __future__ import annotations

import numpy as np


def explore_draw(
    epsilon: float, n_actions: int, rng: np.random.Generator
) -> int | None:
    """With probability ``epsilon`` a uniformly random action index in
    ``[0, n_actions)``; ``None`` when the caller should act greedily.

    Raises
    ------
    ValueError
        If ``epsilon`` is outside [0, 1] or there is no action.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if n_actions < 1:
        raise ValueError(f"n_actions must be positive, got {n_actions}")
    # random() is uniform() on [0, 1) without the affine map: the same
    # draw and the same value, bit for bit.
    if rng.random() < epsilon:
        return int(rng.integers(n_actions))
    return None


def greedy_pick(q_values: np.ndarray, rng: np.random.Generator) -> int:
    """The index of the largest Q estimate.

    Ties at the maximum are broken uniformly at random so that identical
    initial Q-values do not bias toward low indices.

    Raises
    ------
    ValueError
        If ``q_values`` is not a non-empty vector, or holds a NaN, so
        that no action is greedy.
    """
    q_values = np.asarray(q_values, dtype=np.float64)
    if q_values.ndim != 1 or q_values.size == 0:
        raise ValueError(
            f"q_values must be a non-empty vector, got shape {q_values.shape}"
        )
    first = int(q_values.argmax())  # the first NaN, if there is one
    top = q_values[first]
    if top != top:
        nan_at = np.flatnonzero(np.isnan(q_values)).tolist()
        raise ValueError(f"q_values hold NaN at {nan_at}, so no action is greedy")
    best = q_values == top
    if np.count_nonzero(best) == 1:
        return first  # rng.integers(1) would draw nothing
    # The index rng.choice(best) would draw, from the same generator state.
    best = np.flatnonzero(best)
    return int(best[rng.integers(best.size)])
