"""Tests for repro.rl.replay."""

import numpy as np
import pytest

from repro.rl.replay import ReplayMemory


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

    def test_arrays_hold_every_field_oldest_first(self):
        states, actions, rewards, next_states, taus = filled(10, 4).arrays()
        assert states.tolist() == [[0.0], [1.0], [2.0], [3.0]]
        assert actions.tolist() == [0, 1, 2, 0]
        assert rewards.tolist() == [0.0, -1.0, -2.0, -3.0]
        assert next_states.tolist() == [[1.0], [2.0], [3.0], [4.0]]
        assert taus.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert states.dtype == np.float64 and actions.dtype == np.int64

    def test_capacity_evicts_oldest(self):
        mem = filled(3, 5)
        assert len(mem) == 3
        assert mem.arrays()[0].ravel().tolist() == [2.0, 3.0, 4.0]

    def test_arrays_survive_later_pushes(self):
        # Ring-buffer regression guard: the returned arrays must not
        # alias the live buffers, or later pushes would rewrite them.
        mem = filled(2, 2)
        held = mem.arrays()
        push(mem, 99)
        assert held[0].ravel().tolist() == [0.0, 1.0]
        assert held[3].ravel().tolist() == [1.0, 2.0]

    def test_arrays_of_empty_memory_raise(self):
        with pytest.raises(ValueError):
            ReplayMemory(5).arrays()

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
