"""Experience replay memory.

The paper stores state-transition profiles ``(s_k, a_k, r_k, s_{k+1})`` in
an experience memory ``D`` with capacity ``N_D`` and samples minibatches
from it to train the DNN, "to smooth out learning and avoid oscillations
or divergence in the parameters". Each transition here also carries the
sojourn time ``tau`` needed by the continuous-time (SMDP) target.

Storage is preallocated ring-buffer arrays, one row per transition, with
every state stored once. Within one run the broker pushes transition
``k + 1`` with transition ``k``'s next state as its state, so a
transition's successor is, as a rule, the state in the ring's next slot.
The exceptions are *chain ends*, whose next state lives in a small side
store: the newest transition (its successor is not pushed yet) and each
run's last one (the broker's ``on_run_end`` drops the open sojourn, so
the next run's first state does not follow it). :meth:`ReplayMemory.push`
links a transition to the state pushed after it only when the two are
the same bytes, so a ``-0.0`` never stands in for a ``0.0`` and a NaN
row still links. :meth:`ReplayMemory.sample_arrays` gathers a minibatch
with one gather per field, plus one for the successors, and patches
only the chain-end rows from the side store: the same five arrays, bit
for bit, as a store that kept every next state, with half the state
memory. :meth:`ReplayMemory.states` gathers chosen states alone, for the
autoencoder's pre-training.
"""

from __future__ import annotations

import numpy as np


class ReplayMemory:
    """Bounded FIFO transition store with uniform minibatch sampling.

    Backed by ring-buffer arrays allocated lazily at the first ``push``
    (the state width is not known earlier); states are 1-D numeric
    vectors, stored as float64 in one ``(capacity, width)`` ring. The
    transition in slot ``i`` takes its next state from slot ``i + 1``
    (mod ``capacity``) unless ``_ends[i]`` marks it a chain end, whose
    next state is ``_side[i]``. The newest transition is always a chain
    end; when the state pushed after it is byte for byte its next state,
    its side entry is dropped. At the ring's wrap a push overwrites the
    oldest transition's slot, and the new transition's side entry
    replaces the evicted one's; the overwritten state row was nobody's
    successor, since the slot before it holds the newest transition, a
    chain end.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._size = 0
        self._head = 0  # next physical write slot
        self._states: np.ndarray | None = None
        self._ends: np.ndarray | None = None
        self._side: dict[int, np.ndarray] = {}
        self._actions: np.ndarray | None = None
        self._rewards: np.ndarray | None = None
        self._taus: np.ndarray | None = None

    def __len__(self) -> int:
        return self._size

    def _allocate(self, width: int) -> None:
        self._states = np.empty((self.capacity, width), dtype=np.float64)
        self._ends = np.zeros(self.capacity, dtype=bool)
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
            If ``tau`` is not ``>= 0`` (NaN included), or ``state`` or
            ``next_state`` has a size other than the memory's width (the
            first push's state size).
        """
        if not tau >= 0:
            raise ValueError(f"tau must be non-negative, got {tau}")
        state, next_state = np.asarray(state), np.asarray(next_state)
        if self._states is None:
            self._allocate(state.size)
        width = self._states.shape[1]
        if state.size != width or next_state.size != width:
            raise ValueError(
                f"states must have {width} entries, got {state.size} "
                f"and {next_state.size}"
            )
        i = self._head
        row = self._states[i]
        row[...] = state
        if self._size:
            # The newest transition is a chain end until this state
            # proves to be its successor.
            prev = (i - 1) % self.capacity
            if self._side[prev].tobytes() == row.tobytes():
                self._ends[prev] = False
                del self._side[prev]
        successor = np.empty(width)
        successor[...] = next_state
        # At the wrap this replaces the evicted transition's side entry.
        self._side[i] = successor
        self._ends[i] = True
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
        idx = self._physical(logical)
        states = self._states.take(idx, axis=0)
        next_states = self._states.take(idx + 1, axis=0, mode="wrap")
        for row in self._ends[idx].nonzero()[0].tolist():
            next_states[row] = self._side[int(idx[row])]
        return (
            states,
            self._actions[idx],
            self._rewards[idx],
            next_states,
            self._taus[idx],
        )
