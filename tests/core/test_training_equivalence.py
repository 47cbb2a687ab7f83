"""The global tier's training paths against the per-array Adam oracle.

Each case trains twice from the same start for at least 50 optimizer
steps: once as shipped, with the packed Adam of ``repro.nn.optim`` (one
value and one gradient buffer per network), and once with
``tests.helpers.LoopAdam``, which updates one parameter array at a
time. Weights and Adam moments must come out bit for bit equal, so
assertions use ``array_equal``, never ``allclose``.
"""

import numpy as np
import pytest

import repro.nn.autoencoder as autoencoder_module
from repro.core.baselines import ImmediateSleepPolicy
from repro.core.config import ExperimentConfig, GlobalTierConfig
from repro.core.global_tier import DRLGlobalBroker, offline_pretrain
from repro.core.qnetwork import FlatQNetwork
from repro.core.state import StateEncoder
from repro.harness.runner import SitePolicy, untrained_broker
from repro.nn.optim import Adam
from repro.rl.replay import Transition
from repro.sim.job import Job
from tests.helpers import LoopAdam, assert_same_adam, record_optimizers

STEPS = 60


def tier_config(**kwargs) -> GlobalTierConfig:
    kwargs.setdefault("batch_size", 16)
    return GlobalTierConfig(num_groups=3, replay_capacity=2000, **kwargs)


def make_broker(**kwargs) -> DRLGlobalBroker:
    return DRLGlobalBroker(
        StateEncoder(6, num_groups=3),
        tier_config(**kwargs),
        rng=np.random.default_rng(0),
    )


def as_oracle(broker: DRLGlobalBroker) -> DRLGlobalBroker:
    """``broker`` with its packed Adam swapped for the per-array oracle."""
    broker.optimizer = LoopAdam(
        broker.qnet.parameters(), lr=broker.config.learning_rate
    )
    return broker


def fill_replay(broker: DRLGlobalBroker, n: int = 300) -> None:
    """The same ``n`` random transitions for every broker."""
    rng = np.random.default_rng(1)
    dim, servers = broker.encoder.state_dim, broker.encoder.num_servers
    for _ in range(n):
        broker.replay.push(
            Transition(
                rng.uniform(size=dim),
                int(rng.integers(servers)),
                float(rng.normal(scale=5.0)),
                rng.uniform(size=dim),
                float(rng.uniform(0.1, 30.0)),
            )
        )


class TestBroker:
    @pytest.mark.parametrize("max_grad_norm", [10.0, 0.05])
    def test_train_minibatch(self, max_grad_norm):
        packed = make_broker(max_grad_norm=max_grad_norm)
        oracle = as_oracle(make_broker(max_grad_norm=max_grad_norm))
        for broker in (packed, oracle):
            fill_replay(broker)
        for _ in range(STEPS):
            assert packed.train_minibatch() == oracle.train_minibatch()
        assert_same_adam(packed.optimizer, oracle.optimizer)

    def test_offline_pretrain_steps_the_q_networks_buffer(self, monkeypatch):
        # The autoencoder's own Adam, made after the broker's, must step
        # the autoencoder's run of the Q-network's buffer: a repacked copy
        # would leave the broker's optimizer updating stale memory.
        traces = [
            [Job(i, i * 15.0, 60.0, (0.3, 0.2, 0.1)) for i in range(60)]
            for _ in range(2)
        ]
        runs = {}
        for name, cls in (("packed", Adam), ("oracle", LoopAdam)):
            broker = make_broker() if cls is Adam else as_oracle(make_broker())
            with monkeypatch.context() as mp:
                made = record_optimizers(mp, autoencoder_module, cls)
                history = offline_pretrain(
                    broker,
                    traces,
                    policy_factory=ImmediateSleepPolicy,
                    autoencoder_epochs=9,
                    q_epochs=1,
                    batches_per_epoch=STEPS,
                )
            runs[name] = (broker, made[0], history)
        packed, packed_ae, history = runs["packed"]
        oracle, oracle_ae, oracle_history = runs["oracle"]
        assert packed_ae.values.base is packed.optimizer.values
        assert packed_ae._t >= 50
        assert_same_adam(packed_ae, oracle_ae)
        assert_same_adam(packed.optimizer, oracle.optimizer)
        assert history == oracle_history


class TestFlatQNetwork:
    def test_train_step(self):
        encoder = StateEncoder(6, num_groups=3)
        net = FlatQNetwork(encoder, hidden=(16,), rng=np.random.default_rng(0))
        twin = net.clone()
        packed, oracle = net.make_optimizer(1e-2), LoopAdam(twin.parameters(), lr=1e-2)
        rng = np.random.default_rng(1)
        for _ in range(STEPS):
            states = rng.uniform(size=(16, encoder.state_dim))
            actions = rng.integers(6, size=16)
            targets = rng.normal(scale=20.0, size=16)
            loss = net.train_step(states, actions, targets, packed, 1.0)
            assert loss == twin.train_step(states, actions, targets, oracle, 1.0)
        assert_same_adam(packed, oracle)


class TestSitePolicyBroker:
    def test_loads_into_its_optimizer_then_trains(self):
        # SitePolicy.broker builds the broker (and its packed optimizer)
        # first and loads the weights after, so the load must write into
        # the optimizer's buffer.
        config = ExperimentConfig(num_servers=6, global_tier=tier_config())
        trained = untrained_broker(config, seed=5)
        fill_replay(trained)
        for _ in range(10):
            trained.train_minibatch()
        policy = SitePolicy.capture(trained)

        packed = policy.broker(config, seed=3)
        oracle = as_oracle(policy.broker(config, seed=3))
        for mine, stored in zip(packed.qnet.parameters(), policy.qnet_state.values()):
            assert np.array_equal(mine.value, stored)
            assert np.shares_memory(mine.value, packed.optimizer.values)
        for broker in (packed, oracle):
            fill_replay(broker)
        for _ in range(STEPS):
            assert packed.train_minibatch() == oracle.train_minibatch()
        assert_same_adam(packed.optimizer, oracle.optimizer)
