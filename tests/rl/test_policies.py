"""Tests for repro.rl.policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.policies import explore_draw, greedy_pick


def choose(q: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """One ε-greedy choice, as the brokers make it."""
    action = explore_draw(epsilon, q.size, rng)
    return greedy_pick(q, rng) if action is None else action


class TestEpsilonGreedyChoice:
    def test_greedy_picks_argmax(self, rng):
        q = np.array([0.1, 0.9, 0.3])
        assert choose(q, 0.0, rng) == 1

    def test_fully_random_covers_all_actions(self, rng):
        picks = {explore_draw(1.0, 3, rng) for _ in range(200)}
        assert picks == {0, 1, 2}

    def test_ties_broken_randomly(self, rng):
        q = np.zeros(4)
        picks = {greedy_pick(q, rng) for _ in range(200)}
        assert len(picks) == 4

    def test_exploration_rate_approximate(self):
        rng = np.random.default_rng(0)
        q = np.array([1.0, 0.0])
        n = 4000
        non_greedy = sum(choose(q, 0.5, rng) == 1 for _ in range(n))
        # epsilon=0.5 with 2 actions -> P(non-greedy) = 0.25.
        assert 0.2 < non_greedy / n < 0.3

    def test_empty_q_raises(self, rng):
        with pytest.raises(ValueError):
            greedy_pick(np.array([]), rng)

    def test_no_action_to_explore_raises(self, rng):
        with pytest.raises(ValueError, match="n_actions"):
            explore_draw(0.1, 0, rng)

    def test_bad_epsilon_raises(self, rng):
        with pytest.raises(ValueError):
            explore_draw(1.5, 2, rng)

    def test_matrix_q_raises(self, rng):
        with pytest.raises(ValueError):
            greedy_pick(np.zeros((2, 2)), rng)

    def test_nan_q_value_is_named(self, rng):
        q = np.array([0.5, np.nan, 0.2])
        with pytest.raises(ValueError, match=r"NaN at \[1\]"):
            greedy_pick(q, rng)

    def test_greedy_coin_draws_nothing_more(self):
        rng, reference = np.random.default_rng(3), np.random.default_rng(3)
        assert explore_draw(0.0, 5, rng) is None
        reference.uniform()
        assert rng.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.integers(0, 3), min_size=1, max_size=30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_greedy_draw_is_rng_choice_of_the_maxima(self, values, seed):
        # Few distinct values, so ties at the maximum are common.
        q = np.array(values, dtype=np.float64)
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            reference.uniform()  # the exploration draw
            best = np.flatnonzero(q == q.max())
            assert choose(q, 0.0, rng) == int(reference.choice(best))
        assert rng.bit_generator.state == reference.bit_generator.state
