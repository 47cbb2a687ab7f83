"""Tests for repro.core.rewards."""

import pytest

from repro.core.config import GlobalTierConfig
from repro.core.rewards import (
    GlobalRewardWeights,
    global_reward_rate,
    local_reward_rate,
)

_TIER = GlobalTierConfig()
#: The weights a DRL broker runs with (GlobalTierConfig's).
TIER_WEIGHTS = GlobalRewardWeights(_TIER.w_power, _TIER.w_vms, _TIER.w_reliability)


class TestGlobalReward:
    def test_weighted_combination(self):
        w = GlobalRewardWeights(w_power=0.001, w_vms=0.01, w_reliability=1.0)
        # 10 s sojourn: 13000 J (1300 W), 500 VM-seconds (50 VMs), 2 overload-s.
        rate = global_reward_rate(w, 13000.0, 500.0, 2.0, 10.0)
        assert rate == pytest.approx(-(0.001 * 1300 + 0.01 * 50 + 1.0 * 0.2))

    def test_always_non_positive_for_non_negative_inputs(self):
        assert global_reward_rate(TIER_WEIGHTS, 100.0, 10.0, 0.0, 5.0) <= 0.0

    def test_zero_tau_raises(self):
        with pytest.raises(ValueError):
            global_reward_rate(TIER_WEIGHTS, 1.0, 1.0, 1.0, 0.0)

    def test_negative_weights_raise(self):
        with pytest.raises(ValueError):
            GlobalRewardWeights(w_power=-1.0, w_vms=0.1, w_reliability=1.0)

    def test_zero_weights_allowed(self):
        w = GlobalRewardWeights(0.0, 0.0, 0.0)
        assert global_reward_rate(w, 100.0, 100.0, 100.0, 1.0) == 0.0


class TestLocalReward:
    def test_eqn5_shape(self):
        # r = -(w P/scale + (1-w) JQ): 87 W for 10 s, 5 job-seconds queued.
        rate = local_reward_rate(0.5, 870.0, 5.0, 10.0, power_scale=145.0)
        assert rate == pytest.approx(-(0.5 * 87.0 / 145.0 + 0.5 * 0.5))

    def test_w_one_pure_power(self):
        rate = local_reward_rate(1.0, 1450.0, 100.0, 10.0, power_scale=145.0)
        assert rate == pytest.approx(-1.0)

    def test_w_zero_pure_latency(self):
        rate = local_reward_rate(0.0, 1450.0, 100.0, 10.0, power_scale=145.0)
        assert rate == pytest.approx(-10.0)

    def test_invalid_w(self):
        with pytest.raises(ValueError):
            local_reward_rate(1.5, 1.0, 1.0, 1.0)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            local_reward_rate(0.5, 1.0, 1.0, 0.0)

    def test_invalid_power_scale(self):
        with pytest.raises(ValueError):
            local_reward_rate(0.5, 1.0, 1.0, 1.0, power_scale=0.0)

    def test_sleeping_beats_idling_when_queue_empty(self):
        # Same sojourn, no queueing: less energy => higher (less negative)
        # reward. This is the gradient the DPM learner climbs.
        idle = local_reward_rate(0.5, 87.0 * 100, 0.0, 100.0, power_scale=145.0)
        sleep = local_reward_rate(0.5, 145.0 * 30, 0.0, 100.0, power_scale=145.0)
        assert sleep > idle
