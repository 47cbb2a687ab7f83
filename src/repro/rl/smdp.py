"""Continuous-time Q-learning for semi-Markov decision processes.

Implements the paper's Eqn. (2) value update (after Bradtke & Duff):

    Q(s_k, a_k) <- Q(s_k, a_k) + alpha * (
        (1 - e^{-beta tau_k}) / beta * r(s_k, a_k)
        + e^{-beta tau_k} * max_a' Q(s_{k+1}, a')
        - Q(s_k, a_k)
    )

where ``tau_k`` is the sojourn time in state ``s_k``, ``beta`` the
continuous-time discount rate, and ``r`` the (average) reward *rate* over
the sojourn. Decision epochs are event-driven, so no periodic updates are
needed — the property the paper leans on in both tiers.
"""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np

from repro.rl.policies import explore_draw, greedy_pick


def smdp_discounted_reward(reward_rate: float, tau: float, beta: float) -> float:
    """Sojourn-discounted reward ``(1 - e^{-beta tau}) / beta * r``.

    For ``beta -> 0`` this degenerates to ``r * tau`` (undiscounted
    accumulation); that limit is handled explicitly for numerical safety.
    """
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    if beta == 0.0:
        return reward_rate * tau
    return (1.0 - math.exp(-beta * tau)) / beta * reward_rate


def smdp_target(
    reward_rate: float,
    tau: float,
    beta: float,
    next_max_q: float,
) -> float:
    """Full SMDP bootstrap target: discounted reward + discounted tail."""
    discount = math.exp(-beta * tau) if beta > 0.0 else 1.0
    return smdp_discounted_reward(reward_rate, tau, beta) + discount * next_max_q


class SMDPQLearner:
    """Tabular continuous-time Q-learning agent.

    States are arbitrary hashable keys; each state owns a Q-vector over a
    *per-state* action set (the local tier's idle states choose among
    timeout values while its busy states have a single no-op action).

    Parameters
    ----------
    beta:
        Continuous-time discount rate (paper: 0.5 for the global tier).
    alpha:
        Learning rate (<= 1).
    epsilon:
        Exploration probability for :meth:`select_action`.
    epsilon_decay, epsilon_floor:
        Optional multiplicative annealing of ε per action selection.
    initial_q:
        Optimistic/neutral initial Q value for unseen state-actions.
    """

    def __init__(
        self,
        beta: float = 0.5,
        alpha: float = 0.1,
        epsilon: float = 0.1,
        epsilon_decay: float = 1.0,
        epsilon_floor: float = 0.01,
        initial_q: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if beta < 0:
            raise ValueError(f"beta must be non-negative, got {beta}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        if not 0.0 < epsilon_decay <= 1.0:
            raise ValueError(f"epsilon_decay must be in (0, 1], got {epsilon_decay}")
        self.beta = float(beta)
        self.alpha = float(alpha)
        self.epsilon = float(epsilon)
        self.epsilon_decay = float(epsilon_decay)
        self.epsilon_floor = float(epsilon_floor)
        self.initial_q = float(initial_q)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._q: dict[Hashable, np.ndarray] = {}
        self._n_actions: dict[Hashable, int] = {}
        self.updates = 0

    def q_values(self, state: Hashable, n_actions: int) -> np.ndarray:
        """Q-vector for ``state``, creating it on first touch.

        Raises
        ------
        ValueError
            If the state was previously seen with a different action count.
        """
        if n_actions < 1:
            raise ValueError(f"n_actions must be positive, got {n_actions}")
        known = self._n_actions.get(state)
        if known is None:
            self._q[state] = np.full(n_actions, self.initial_q, dtype=np.float64)
            self._n_actions[state] = n_actions
        elif known != n_actions:
            raise ValueError(
                f"state {state!r} previously had {known} actions, now {n_actions}"
            )
        return self._q[state]

    def select_action(self, state: Hashable, n_actions: int) -> int:
        """ε-greedy action selection, annealing ε if configured."""
        q = self.q_values(state, n_actions)
        choice = explore_draw(self.epsilon, n_actions, self.rng)
        if choice is None:
            choice = greedy_pick(q, self.rng)
        if self.epsilon_decay < 1.0:
            self.epsilon = max(self.epsilon_floor, self.epsilon * self.epsilon_decay)
        return choice

    def greedy_action(self, state: Hashable, n_actions: int) -> int:
        """Exploitation-only action (used after training)."""
        q = self.q_values(state, n_actions)
        best = np.flatnonzero(q == q.max())
        return int(best[0])

    def max_q(self, state: Hashable, n_actions: int) -> float:
        return float(self.q_values(state, n_actions).max())

    def update(
        self,
        state: Hashable,
        action: int,
        reward_rate: float,
        tau: float,
        next_state: Hashable,
        n_actions: int,
        next_n_actions: int,
    ) -> float:
        """Apply the Eqn. (2) update; returns the new Q(s, a).

        ``reward_rate`` is the average reward *rate* over the sojourn
        ``tau``; the sojourn discounting is applied internally.
        """
        q = self.q_values(state, n_actions)
        if not 0 <= action < n_actions:
            raise ValueError(f"action {action} outside [0, {n_actions})")
        target = smdp_target(
            reward_rate, tau, self.beta, self.max_q(next_state, next_n_actions)
        )
        q[action] += self.alpha * (target - q[action])
        self.updates += 1
        return float(q[action])

    def table(self) -> dict[Hashable, np.ndarray]:
        """Copy of the full Q table (for inspection/tests)."""
        return {state: q.copy() for state, q in self._q.items()}
