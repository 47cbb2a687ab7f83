"""Tests for repro.core.global_tier: the DRL broker and offline phase."""

import numpy as np
import pytest

from repro.core.baselines import ImmediateSleepPolicy, RoundRobinBroker
from repro.core.config import ExperimentConfig, GlobalTierConfig
from repro.core.global_tier import (
    AUTOENCODER_PRETRAIN_EPOCHS,
    Q_PRETRAIN_EPOCHS,
    DRLGlobalBroker,
    offline_pretrain,
)
from repro.core.hierarchical import HierarchicalSystem
from repro.core.state import StateEncoder
from repro.sim.engine import build_simulation
from repro.sim.job import Job
from tests.helpers import stored_transitions


def make_broker(num_servers=4, groups=2, **cfg_kwargs):
    cfg_kwargs.setdefault("replay_capacity", 1000)
    cfg_kwargs.setdefault("train_interval", 4)
    cfg_kwargs.setdefault("batch_size", 8)
    encoder = StateEncoder(num_servers, num_groups=groups)
    config = GlobalTierConfig(num_groups=groups, **cfg_kwargs)
    return DRLGlobalBroker(encoder, config, rng=np.random.default_rng(0))


def jobs_burst(n, spacing=20.0):
    return [Job(i, i * spacing, 50.0, (0.3, 0.1, 0.1)) for i in range(n)]


class TestOnlineOperation:
    def test_actions_in_range(self):
        broker = make_broker()
        engine = build_simulation(4, broker, ImmediateSleepPolicy())
        jobs = jobs_burst(20)
        engine.run(jobs)
        assert all(0 <= j.server_id < 4 for j in jobs)

    def test_transitions_recorded_per_epoch(self):
        broker = make_broker()
        engine = build_simulation(4, broker, ImmediateSleepPolicy())
        engine.run(jobs_burst(20))
        # N arrivals produce N-1 completed sojourns.
        assert len(broker.replay) == 19
        assert broker.decision_epochs == 20

    def test_rewards_are_non_positive(self):
        broker = make_broker()
        engine = build_simulation(4, broker, ImmediateSleepPolicy())
        engine.run(jobs_burst(20))
        rewards = stored_transitions(broker.replay)[2]
        assert (rewards <= 0.0).all()

    def test_reward_clipping_bounds_rates(self):
        broker = make_broker(reward_clip=0.001, normalize_values=False)
        engine = build_simulation(4, broker, ImmediateSleepPolicy())
        engine.run(jobs_burst(20))
        # |discounted reward| <= clip * (1-e^{-beta tau})/beta <= clip/beta.
        bound = 0.001 / broker.config.beta + 1e-12
        assert (np.abs(stored_transitions(broker.replay)[2]) <= bound).all()

    def test_training_happens_on_schedule(self):
        broker = make_broker()
        engine = build_simulation(4, broker, ImmediateSleepPolicy())
        engine.run(jobs_burst(40))
        assert len(broker.loss_history) > 0

    def test_epsilon_anneals(self):
        broker = make_broker(epsilon_start=0.5, epsilon_decay=0.9, epsilon_floor=0.1)
        engine = build_simulation(4, broker, ImmediateSleepPolicy())
        engine.run(jobs_burst(30))
        assert broker.epsilon == pytest.approx(0.1)

    def test_freeze_stops_training_and_exploration(self):
        broker = make_broker()
        broker.freeze()
        engine = build_simulation(4, broker, ImmediateSleepPolicy())
        engine.run(jobs_burst(30))
        assert broker.epsilon == 0.0
        assert len(broker.loss_history) == 0

    def test_on_run_end_resets_pending(self):
        broker = make_broker()
        engine = build_simulation(4, broker, ImmediateSleepPolicy())
        engine.run(jobs_burst(5))
        assert broker._pending is None

    def test_behavior_override_drives_actions(self):
        broker = make_broker()
        broker.behavior = RoundRobinBroker()
        engine = build_simulation(4, broker, ImmediateSleepPolicy())
        jobs = jobs_burst(8)
        engine.run(jobs)
        assert [j.server_id for j in jobs] == [0, 1, 2, 3, 0, 1, 2, 3]
        # Transitions are still recorded in behavior mode.
        assert len(broker.replay) == 7

    def test_value_scaling_applied(self):
        scaled = make_broker(normalize_values=True)
        raw = make_broker(normalize_values=False)
        assert scaled._reward_scale == pytest.approx(scaled.config.beta)
        assert raw._reward_scale == 1.0


class TestTrainMinibatch:
    def test_empty_replay_raises(self):
        broker = make_broker()
        with pytest.raises(ValueError):
            broker.train_minibatch()

    def test_returns_finite_loss(self):
        broker = make_broker()
        engine = build_simulation(4, broker, ImmediateSleepPolicy())
        engine.run(jobs_burst(20))
        loss = broker.train_minibatch()
        assert np.isfinite(loss)


def make_drl_system(num_servers=4, groups=2):
    """A ``drl-only`` system around :func:`make_broker`'s broker."""
    broker = make_broker(num_servers, groups)
    config = ExperimentConfig(num_servers=num_servers, global_tier=broker.config)
    return HierarchicalSystem("drl-only", broker, ImmediateSleepPolicy(), config)


class TestOfflinePretrain:
    def test_fills_replay_and_trains(self):
        system = make_drl_system()
        traces = [jobs_burst(15), jobs_burst(15)]
        history = offline_pretrain(system, traces)
        assert len(system.broker.replay) == 2 * 14
        assert len(history["autoencoder"]) == AUTOENCODER_PRETRAIN_EPOCHS
        assert len(history["q"]) == Q_PRETRAIN_EPOCHS
        # Behavior override must be cleared afterwards.
        assert system.broker.behavior is None

    def test_callers_jobs_come_back_untouched(self):
        traces = [jobs_burst(12), jobs_burst(12)]
        offline_pretrain(make_drl_system(), traces)
        assert all(
            (job.server_id, job.start_time, job.finish_time) == (None, None, None)
            for trace in traces
            for job in trace
        )

    def test_empty_traces_raise(self):
        with pytest.raises(ValueError):
            offline_pretrain(make_drl_system(), [])

    def test_behavior_is_cleared_when_a_pass_fails(self):
        system = make_drl_system()
        unsorted = [jobs_burst(2)[1], jobs_burst(2)[0]]
        with pytest.raises(ValueError, match="sorted"):
            offline_pretrain(system, [unsorted])
        assert system.broker.behavior is None

    def test_collects_under_round_robin(self):
        system = make_drl_system()
        offline_pretrain(system, [jobs_burst(10)])
        actions = stored_transitions(system.broker.replay)[1]
        assert actions.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0]


class TestConfigValidation:
    def test_groups_must_divide_servers(self):
        with pytest.raises(ValueError, match="divisible"):
            ExperimentConfig(num_servers=10, global_tier=GlobalTierConfig(num_groups=3))

    @pytest.mark.parametrize("kwargs", [
        {"num_groups": 0},
        {"beta": -0.1},
        {"train_interval": 0},
        {"batch_size": 0},
    ])
    def test_invalid_global_config(self, kwargs):
        with pytest.raises(ValueError):
            GlobalTierConfig(**kwargs)
