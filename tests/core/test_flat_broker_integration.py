"""Integration: the DRL broker runs with the flat (strawman) Q-network.

The ablation bench swaps :class:`FlatQNetwork` into
:class:`DRLGlobalBroker`; this test pins the duck-type contract so the
swap cannot silently rot.
"""

import numpy as np

from repro.core.baselines import ImmediateSleepPolicy
from repro.core.config import GlobalTierConfig
from repro.core.global_tier import DRLGlobalBroker
from repro.core.qnetwork import FlatQNetwork
from repro.core.state import StateEncoder
from repro.sim.engine import build_simulation
from repro.sim.job import Job


def test_flat_qnetwork_drives_broker_end_to_end():
    encoder = StateEncoder(4, num_groups=2)
    config = GlobalTierConfig(
        num_groups=2, train_interval=4, batch_size=8, replay_capacity=500
    )
    broker = DRLGlobalBroker(
        encoder,
        config,
        qnetwork=FlatQNetwork(encoder, rng=np.random.default_rng(0)),
        rng=np.random.default_rng(0),
    )
    engine = build_simulation(4, broker, ImmediateSleepPolicy())
    jobs = [Job(i, i * 15.0, 40.0, (0.3, 0.1, 0.1)) for i in range(40)]
    result = engine.run(jobs)
    assert result.metrics.n_completed == 40
    assert len(broker.loss_history) > 0  # the flat net actually trained
    assert all(np.isfinite(loss) for loss in broker.loss_history)


def test_flat_clone_keeps_weights():
    encoder = StateEncoder(4, num_groups=2)
    proto = FlatQNetwork(encoder, rng=np.random.default_rng(0))
    clone = proto.clone(rng=np.random.default_rng(1))
    assert clone is not proto
    state = np.random.default_rng(1).uniform(size=encoder.state_dim)
    assert np.array_equal(proto.q_values(state), clone.q_values(state))
