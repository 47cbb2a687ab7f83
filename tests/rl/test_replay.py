"""Tests for repro.rl.replay."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.replay import ReplayMemory
from tests.helpers import TwoArrayReplay, stored_transitions


def push(mem, i):
    """Push transition ``i``: state ``[i]``, next state ``[i + 1]``."""
    mem.push(np.array([float(i)]), i % 3, float(-i), np.array([i + 1.0]), 1.0 + i)


def filled(capacity, n):
    mem = ReplayMemory(capacity)
    for i in range(n):
        push(mem, i)
    return mem


class TestReplayMemory:
    def test_push_and_len(self):
        assert len(filled(10, 5)) == 5

    def test_negative_tau_raises(self):
        mem = ReplayMemory(5)
        with pytest.raises(ValueError, match="tau"):
            mem.push(np.zeros(2), 0, 0.0, np.zeros(2), -1.0)
        assert len(mem) == 0

    def test_nan_tau_raises(self):
        mem = ReplayMemory(5)
        with pytest.raises(ValueError, match="tau"):
            mem.push(np.zeros(2), 0, 0.0, np.zeros(2), math.nan)
        assert len(mem) == 0

    def test_short_state_raises(self):
        # A width-1 state would broadcast across the whole row.
        mem = ReplayMemory(5)
        mem.push(np.zeros(6), 0, 0.0, np.zeros(6), 1.0)
        with pytest.raises(ValueError, match="6 entries"):
            mem.push(np.array([7.0]), 0, 0.0, np.zeros(6), 1.0)
        assert len(mem) == 1
        assert mem.states(np.arange(1)).tolist() == [[0.0] * 6]

    def test_short_next_state_raises(self):
        mem = ReplayMemory(5)
        with pytest.raises(ValueError, match="6 entries"):
            mem.push(np.zeros(6), 0, 0.0, np.array([7.0]), 1.0)
        assert len(mem) == 0
        mem.push(np.zeros(6), 0, 0.0, np.ones(6), 1.0)
        with pytest.raises(ValueError, match="6 entries"):
            mem.push(np.ones(6), 0, 0.0, np.ones(7), 1.0)
        assert stored_transitions(mem)[3].tolist() == [[1.0] * 6]

    def test_arrays_hold_every_field_oldest_first(self):
        states, actions, rewards, next_states, taus = stored_transitions(
            filled(10, 4)
        )
        assert states.tolist() == [[0.0], [1.0], [2.0], [3.0]]
        assert actions.tolist() == [0, 1, 2, 0]
        assert rewards.tolist() == [0.0, -1.0, -2.0, -3.0]
        assert next_states.tolist() == [[1.0], [2.0], [3.0], [4.0]]
        assert taus.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert states.dtype == np.float64 and actions.dtype == np.int64

    def test_capacity_evicts_oldest(self):
        mem = filled(3, 5)
        assert len(mem) == 3
        assert mem.states(np.arange(3)).ravel().tolist() == [2.0, 3.0, 4.0]

    def test_states_at_logical_indices(self):
        mem = filled(3, 5)  # wrapped: slots hold 3, 4, 2
        assert mem.states(np.array([2, 0])).ravel().tolist() == [4.0, 2.0]
        assert mem.states(np.arange(0)).shape == (0, 1)
        for bad in ([3], [-1]):
            with pytest.raises(IndexError):
                mem.states(np.array(bad))

    def test_states_survive_later_pushes(self):
        # Ring-buffer regression guard: the returned rows must not alias
        # the live buffer, or later pushes would rewrite them.
        mem = filled(2, 2)
        held = mem.states(np.arange(2))
        push(mem, 99)
        assert held.ravel().tolist() == [0.0, 1.0]

    def test_states_of_empty_memory_raise(self):
        with pytest.raises(ValueError):
            ReplayMemory(5).states(np.arange(0))

    def test_sample_shapes(self, rng):
        mem = filled(10, 10)
        states, actions, rewards, next_states, taus = mem.sample_arrays(4, rng)
        assert states.shape == next_states.shape == (4, 1)
        assert actions.shape == rewards.shape == taus.shape == (4,)

    def test_sampled_rows_are_whole_transitions(self, rng):
        mem = filled(7, 20)
        states, actions, rewards, next_states, taus = mem.sample_arrays(50, rng)
        i = states.ravel()
        assert (next_states.ravel() == i + 1).all()
        assert (rewards == -i).all() and (taus == 1.0 + i).all()
        assert (actions == i % 3).all()
        assert set(i.tolist()) <= set(range(13, 20))

    def test_sample_without_replacement_when_possible(self, rng):
        states = filled(10, 10).sample_arrays(10, rng)[0]
        assert len(set(states.ravel().tolist())) == 10

    def test_oversample_with_replacement(self, rng):
        states = filled(10, 1).sample_arrays(5, rng)[0]
        assert states.ravel().tolist() == [0.0] * 5

    def test_sample_empty_raises(self, rng):
        with pytest.raises(ValueError):
            ReplayMemory(5).sample_arrays(1, rng)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayMemory(0)

    def test_sampling_is_uniform_ish(self):
        rng = np.random.default_rng(0)
        mem = filled(4, 4)
        counts = np.zeros(4)
        for _ in range(500):
            for i in mem.sample_arrays(2, rng)[0].ravel():
                counts[int(i)] += 1
        assert counts.min() > 0.6 * counts.max()


#: Entries whose bytes differ though ``==`` calls some of them equal.
ENTRIES = [0.0, -0.0, 1.0, math.nan, -math.nan, 2.5]


@st.composite
def push_sequences(draw):
    """A capacity, a width and the pushes of a few runs.

    Each push's state continues the chain (the previous next state),
    starts a fresh one (a run boundary, or an unrelated state), or
    repeats the previous next state with its zeros' signs flipped; its
    next state is fresh or its own state.
    """
    capacity = draw(st.integers(1, 17))
    width = draw(st.integers(1, 3))
    row = st.lists(st.sampled_from(ENTRIES), min_size=width, max_size=width)
    pushes = []
    previous = None
    for _ in range(draw(st.integers(1, 3 * capacity + 4))):
        start = draw(st.sampled_from(["chain", "fresh", "flipped"]))
        if previous is None or start == "fresh":
            state = np.array(draw(row))
        elif start == "chain":
            state = previous.copy()
        else:
            state = np.where(previous == 0.0, -previous, previous)
        if draw(st.booleans()):
            next_state = state.copy()
        else:
            next_state = np.array(draw(row))
        action = draw(st.integers(0, 5))
        reward = draw(st.sampled_from(ENTRIES))
        tau = draw(st.sampled_from([0.0, 0.5, 3.0]))
        pushes.append((state, action, reward, next_state, tau))
        previous = next_state
    return capacity, pushes


def assert_same_bytes(mine, oracle):
    for a, b in zip(mine, oracle, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestAgainstTwoArrays:
    @settings(max_examples=150, deadline=None)
    @given(push_sequences(), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_same_samples_and_states_after_every_push(self, case, batch, seed):
        capacity, pushes = case
        mine, oracle = ReplayMemory(capacity), TwoArrayReplay(capacity)
        for transition in pushes:
            mine.push(*transition)
            oracle.push(*transition)
            assert len(mine) == len(oracle)
            assert_same_bytes(
                mine.sample_arrays(batch, np.random.default_rng(seed)),
                oracle.sample_arrays(batch, np.random.default_rng(seed)),
            )
            everything = np.arange(len(mine))
            assert_same_bytes(
                [mine.states(everything), stored_transitions(mine)[3]],
                [oracle.states(everything), stored_transitions(oracle)[3]],
            )

    def test_one_state_buffer(self):
        capacity, width = 512, 64
        buffer = capacity * width * 8
        chain = np.random.default_rng(0).uniform(size=(capacity + 1, width))

        def peak_bytes(cls):
            tracemalloc.start()
            try:
                memory = cls(capacity)
                for k in range(capacity):
                    memory.push(chain[k], 0, 0.0, chain[k + 1], 1.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert buffer <= peak_bytes(ReplayMemory) < 1.25 * buffer
        assert peak_bytes(TwoArrayReplay) >= 2 * buffer
