"""Experience replay memory.

The paper stores state-transition profiles ``(s_k, a_k, r_k, s_{k+1})`` in
an experience memory ``D`` with capacity ``N_D`` and samples minibatches
from it to train the DNN, "to smooth out learning and avoid oscillations
or divergence in the parameters". Each transition here also carries the
sojourn time ``tau`` needed by the continuous-time (SMDP) target.

Storage is a set of preallocated ring-buffer arrays, one per field:
``push`` writes one row per field, and :meth:`ReplayMemory.sample_arrays`
gathers a minibatch with a single fancy index per field — no
per-transition Python objects exist at all. :meth:`ReplayMemory.states`
gathers chosen states alone, for the autoencoder's pre-training.
"""

from __future__ import annotations

import numpy as np


class ReplayMemory:
    """Bounded FIFO transition store with uniform minibatch sampling.

    Backed by ring-buffer arrays allocated lazily at the first ``push``
    (the state width is not known earlier). States are 1-D numeric
    vectors, stored as float64.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._size = 0
        self._head = 0  # next physical write slot
        self._states: np.ndarray | None = None
        self._next_states: np.ndarray | None = None
        self._actions: np.ndarray | None = None
        self._rewards: np.ndarray | None = None
        self._taus: np.ndarray | None = None

    def __len__(self) -> int:
        return self._size

    def _allocate(self, width: int) -> None:
        self._states = np.empty((self.capacity, width), dtype=np.float64)
        self._next_states = np.empty_like(self._states)
        self._actions = np.empty(self.capacity, dtype=np.int64)
        self._rewards = np.empty(self.capacity, dtype=np.float64)
        self._taus = np.empty(self.capacity, dtype=np.float64)

    def push(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        tau: float,
    ) -> None:
        """Append one SMDP transition, evicting the oldest when at capacity.

        ``reward`` is the *already sojourn-discounted* reward accumulated
        over ``[t_k, t_{k+1})`` — the ``(1 - e^{-beta tau}) / beta * r``
        term of Eqn. (2) — and ``tau`` the sojourn time that discounts
        the bootstrapped tail.

        Raises
        ------
        ValueError
            If ``tau`` is negative.
        """
        if tau < 0:
            raise ValueError(f"tau must be non-negative, got {tau}")
        if self._states is None:
            self._allocate(len(state))
        i = self._head
        self._states[i] = state
        self._next_states[i] = next_state
        self._actions[i] = action
        self._rewards[i] = reward
        self._taus[i] = tau
        self._head = (i + 1) % self.capacity
        if self._size < self.capacity:
            self._size += 1

    def _physical(self, logical: np.ndarray) -> np.ndarray:
        """Map logical indices (0 = oldest) to ring-buffer slots."""
        start = (self._head - self._size) % self.capacity
        return (start + logical) % self.capacity

    def _gather(
        self, idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            self._states[idx],
            self._actions[idx],
            self._rewards[idx],
            self._next_states[idx],
            self._taus[idx],
        )

    def states(self, logical: np.ndarray) -> np.ndarray:
        """The stored states at ``logical`` indices (0 = the oldest).

        Gathers the state rows alone (a copy: later pushes do not change
        it), so a caller that needs a subsample of the states never
        copies the whole memory.

        Raises
        ------
        ValueError
            If the memory is empty.
        IndexError
            If an index is outside ``[0, len(self))``.
        """
        if self._size == 0:
            raise ValueError("the replay memory is empty")
        logical = np.asarray(logical)
        if logical.size and (logical.min() < 0 or logical.max() >= self._size):
            raise IndexError(f"logical indices must lie in [0, {self._size})")
        return self._states[self._physical(logical)]

    def sample_arrays(
        self, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Uniform minibatch as ``(states, actions, rewards, next_states,
        taus)`` arrays, gathered straight from the ring buffers.

        Sampling is without replacement when the batch fits (with,
        otherwise).

        Raises
        ------
        ValueError
            If the memory is empty.
        """
        if self._size == 0:
            raise ValueError("cannot sample from an empty replay memory")
        replace = batch_size > self._size
        logical = rng.choice(self._size, size=batch_size, replace=replace)
        return self._gather(self._physical(logical))
