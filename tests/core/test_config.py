"""Tests for repro.core.config: defaults and validation."""

import pytest

from repro.core.config import (
    ExperimentConfig,
    GlobalTierConfig,
    LocalTierConfig,
    PredictorConfig,
)
from repro.sim.power import PowerModel


class TestPaperDefaults:
    def test_power_model_paper_values(self):
        config = ExperimentConfig()
        assert config.power_model.idle_power == 87.0  # P(0%)
        assert config.power_model.peak_power == 145.0  # P(100%)
        assert config.power_model.t_on == 30.0
        assert config.power_model.t_off == 30.0

    def test_global_tier_architecture_defaults(self):
        gt = GlobalTierConfig()
        assert gt.autoencoder_hidden == (30, 15)  # paper: 30 and 15 ELUs
        assert gt.subq_hidden == (128,)  # paper: 128 ELUs
        assert 2 <= gt.num_groups <= 4  # paper: K in [2, 4]
        assert gt.max_grad_norm == 10.0  # paper: clip norm 10

    def test_predictor_paper_defaults(self):
        pc = PredictorConfig()
        assert pc.lookback == 35  # paper: 35 look-back steps
        assert pc.hidden_units == 30  # paper: 30 hidden units

    def test_local_tier_includes_immediate_shutdown(self):
        lt = LocalTierConfig()
        assert 0.0 in lt.timeouts  # "including the immediate shutdown"

    def test_default_cluster_size(self):
        assert ExperimentConfig().num_servers == 30


class TestValidation:
    def test_servers_divisible_by_groups(self):
        ExperimentConfig(num_servers=30, global_tier=GlobalTierConfig(num_groups=3))
        with pytest.raises(ValueError):
            ExperimentConfig(num_servers=31, global_tier=GlobalTierConfig(num_groups=3))

    def test_zero_servers(self):
        with pytest.raises(ValueError):
            ExperimentConfig(num_servers=0)

    def test_frozen_configs(self):
        config = ExperimentConfig()
        with pytest.raises(AttributeError):
            config.num_servers = 10
        with pytest.raises(AttributeError):
            config.global_tier.beta = 1.0

    def test_custom_power_model_accepted(self):
        pm = PowerModel(idle_power=50.0, peak_power=200.0)
        config = ExperimentConfig(power_model=pm)
        assert config.power_model.peak_power == 200.0

    def test_nested_replace_pattern(self):
        from dataclasses import replace

        config = ExperimentConfig()
        tuned = replace(config, local_tier=replace(config.local_tier, w=0.9))
        assert tuned.local_tier.w == 0.9
        assert config.local_tier.w == 0.5  # original untouched


class TestScheduleValidation:
    """The ε-greedy schedule and the Q-loss are checked when configured,
    not when a run first trips over them."""

    @pytest.mark.parametrize("tier", [GlobalTierConfig, LocalTierConfig])
    @pytest.mark.parametrize(
        "overrides",
        [
            {"epsilon_decay": 0.0},
            {"epsilon_decay": 1.5},
            {"epsilon_start": 0.1, "epsilon_floor": 0.5},
            {"epsilon_start": 1.5},
            {"epsilon_floor": -0.1},
        ],
        ids=[
            "decay-zero",
            "decay-grows",
            "floor-above-start",
            "start-above-one",
            "negative-floor",
        ],
    )
    def test_bad_epsilon_schedule_raises(self, tier, overrides):
        with pytest.raises(ValueError, match="epsilon"):
            tier(**overrides)

    @pytest.mark.parametrize("tier", [GlobalTierConfig, LocalTierConfig])
    def test_schedule_edges_accepted(self, tier):
        tier(epsilon_decay=1.0)  # constant epsilon
        tier(epsilon_start=0.2, epsilon_floor=0.2)
        tier(epsilon_start=0.0, epsilon_floor=0.0)  # greedy throughout
        tier(epsilon_start=1.0, epsilon_floor=0.0)

    @pytest.mark.parametrize("delta", [0.0, -1.0])
    def test_huber_delta_must_be_positive(self, delta):
        with pytest.raises(ValueError, match="huber_delta"):
            GlobalTierConfig(huber_delta=delta)

    def test_huber_delta_none_selects_mse(self):
        assert GlobalTierConfig(huber_delta=None).huber_delta is None
