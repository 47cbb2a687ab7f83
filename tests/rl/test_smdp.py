"""Tests for repro.rl.smdp: Eqn. (2) math and tabular convergence."""

import math

import numpy as np
import pytest

from repro.rl.smdp import SMDPQLearner, smdp_discounted_reward, smdp_target


class TestDiscountedReward:
    def test_formula(self):
        r, tau, beta = 2.0, 3.0, 0.5
        expected = (1 - math.exp(-beta * tau)) / beta * r
        assert smdp_discounted_reward(r, tau, beta) == pytest.approx(expected)

    def test_beta_zero_degenerates_to_r_tau(self):
        assert smdp_discounted_reward(2.0, 3.0, 0.0) == pytest.approx(6.0)

    def test_small_beta_close_to_r_tau(self):
        assert smdp_discounted_reward(2.0, 3.0, 1e-9) == pytest.approx(6.0, rel=1e-6)

    def test_long_sojourn_saturates_at_r_over_beta(self):
        assert smdp_discounted_reward(2.0, 1e9, 0.5) == pytest.approx(4.0)

    def test_zero_tau_zero_reward(self):
        assert smdp_discounted_reward(5.0, 0.0, 0.5) == 0.0

    def test_negative_tau_raises(self):
        with pytest.raises(ValueError):
            smdp_discounted_reward(1.0, -1.0, 0.5)

    def test_negative_beta_raises(self):
        with pytest.raises(ValueError):
            smdp_discounted_reward(1.0, 1.0, -0.5)


class TestTarget:
    def test_combines_reward_and_tail(self):
        target = smdp_target(1.0, 2.0, 0.5, next_max_q=10.0)
        expected = (1 - math.exp(-1.0)) / 0.5 * 1.0 + math.exp(-1.0) * 10.0
        assert target == pytest.approx(expected)

    def test_beta_zero_undiscounted(self):
        assert smdp_target(1.0, 2.0, 0.0, 10.0) == pytest.approx(12.0)


class TestLearner:
    def test_q_values_created_on_demand(self, rng):
        learner = SMDPQLearner(rng=rng, initial_q=0.5)
        q = learner.q_values("s", 3)
        assert q.shape == (3,)
        assert np.all(q == 0.5)
        assert list(learner.table()) == ["s"]

    def test_action_count_conflict_raises(self, rng):
        learner = SMDPQLearner(rng=rng)
        learner.q_values("s", 3)
        with pytest.raises(ValueError, match="actions"):
            learner.q_values("s", 4)

    def test_update_moves_toward_target(self, rng):
        learner = SMDPQLearner(beta=0.5, alpha=0.5, rng=rng)
        new_q = learner.update("s", 0, reward_rate=-1.0, tau=2.0, next_state="s2",
                               n_actions=2, next_n_actions=2)
        target = smdp_target(-1.0, 2.0, 0.5, 0.0)
        assert new_q == pytest.approx(0.5 * target)
        assert learner.updates == 1

    def test_update_invalid_action_raises(self, rng):
        learner = SMDPQLearner(rng=rng)
        with pytest.raises(ValueError):
            learner.update("s", 5, 0.0, 1.0, "s2", 2, 2)

    def test_greedy_action(self, rng):
        learner = SMDPQLearner(rng=rng)
        learner.q_values("s", 3)[1] = 10.0
        assert learner.greedy_action("s", 3) == 1

    def test_epsilon_annealing(self, rng):
        learner = SMDPQLearner(
            epsilon=1.0, epsilon_decay=0.5, epsilon_floor=0.2, rng=rng
        )
        learner.select_action("s", 2)
        assert learner.epsilon == 0.5
        for _ in range(10):
            learner.select_action("s", 2)
        assert learner.epsilon == 0.2

    def test_table_is_copy(self, rng):
        learner = SMDPQLearner(rng=rng)
        learner.q_values("s", 2)
        table = learner.table()
        table["s"][0] = 99.0
        assert learner.q_values("s", 2)[0] == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": -1.0},
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"epsilon": 2.0},
            {"epsilon_decay": 0.0},
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            SMDPQLearner(**kwargs)

    def test_converges_on_two_state_smdp(self):
        """A tiny SMDP with a known optimal action.

        State A, two actions: action 0 yields reward rate -1 for tau=1;
        action 1 yields reward rate -5 for tau=1. Both return to A.
        The learner must prefer action 0, and Q must approach the fixed
        point q* = r_disc / (1 - e^{-beta}).
        """
        rng = np.random.default_rng(3)
        learner = SMDPQLearner(beta=0.5, alpha=0.1, epsilon=0.3, rng=rng)
        rates = {0: -1.0, 1: -5.0}
        for _ in range(3000):
            action = learner.select_action("A", 2)
            learner.update("A", action, rates[action], 1.0, "A", 2, 2)
        q = learner.q_values("A", 2)
        assert learner.greedy_action("A", 2) == 0
        disc = smdp_discounted_reward(-1.0, 1.0, 0.5)
        fixed_point = disc / (1 - math.exp(-0.5))
        assert q[0] == pytest.approx(fixed_point, rel=0.15)

    def test_learns_timeout_style_tradeoff(self):
        """A DPM-flavoured SMDP: sleep-now pays a wake penalty later,
        stay-awake pays idle power now. With a long gap, sleeping wins.
        """
        rng = np.random.default_rng(5)
        learner = SMDPQLearner(beta=0.01, alpha=0.2, epsilon=0.3, rng=rng)
        gap = 300.0
        for _ in range(2000):
            action = learner.select_action("idle", 2)
            if action == 0:  # sleep: tiny transition energy, no idle burn
                learner.update("idle", 0, -60 * 145 / gap, gap, "idle", 2, 2)
            else:  # stay awake: idle power the whole gap
                learner.update("idle", 1, -87.0, gap, "idle", 2, 2)
        assert learner.greedy_action("idle", 2) == 0
