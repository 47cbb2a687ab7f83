"""Tests for repro.core.qnetwork: the Fig.-6 architecture."""

import numpy as np
import pytest

from repro.core.qnetwork import FlatQNetwork, HierarchicalQNetwork
from repro.core.state import StateEncoder


@pytest.fixture
def encoder():
    return StateEncoder(6, num_resources=3, num_groups=3,
                        include_power_state=False, include_queue_state=False)


@pytest.fixture
def qnet(encoder, rng):
    return HierarchicalQNetwork(
        encoder, autoencoder_hidden=(8, 4), subq_hidden=(16,), rng=rng
    )


def random_states(encoder, n, rng):
    return rng.uniform(0, 1, size=(n, encoder.state_dim))


class TestArchitecture:
    def test_output_covers_all_servers(self, qnet, encoder, rng):
        q = qnet.predict(random_states(encoder, 5, rng))
        assert q.shape == (5, 6)

    def test_single_state_q_values(self, qnet, encoder, rng):
        q = qnet.q_values(random_states(encoder, 1, rng)[0])
        assert q.shape == (6,)

    def test_subq_input_width(self, qnet, encoder):
        # raw group + (K-1) codes + job block.
        expected = encoder.group_dim + 2 * qnet.code_dim + encoder.job_dim
        assert qnet.subq.in_features == expected

    def test_weight_sharing_parameter_count_independent_of_k(self, rng):
        # Same per-group geometry with more groups must not add parameters
        # beyond the Sub-Q input growth from extra codes.
        enc2 = StateEncoder(4, num_groups=2, include_power_state=False,
                            include_queue_state=False)
        enc4 = StateEncoder(8, num_groups=4, include_power_state=False,
                            include_queue_state=False)
        q2 = HierarchicalQNetwork(enc2, (8, 4), (16,), rng=np.random.default_rng(0))
        q4 = HierarchicalQNetwork(enc4, (8, 4), (16,), rng=np.random.default_rng(0))
        # One autoencoder + one Sub-Q each; the only difference is the
        # Sub-Q input layer width (2 extra code blocks of 4).
        diff = q4.num_parameters() - q2.num_parameters()
        assert diff == 2 * 4 * 16  # extra input weights only

    def test_other_groups_cyclic_order(self, qnet):
        assert qnet._other_groups(0) == [1, 2]
        assert qnet._other_groups(1) == [2, 0]
        assert qnet._other_groups(2) == [0, 1]

    def test_group_permutation_symmetry(self, qnet, encoder, rng):
        """Weight sharing implies group equivariance: rotating the group
        blocks of the state rotates the Q-vector by a group."""
        state = random_states(encoder, 1, rng)[0]
        groups, jobs = encoder.split(state[None, :])
        rotated = np.concatenate(
            [groups[1][0], groups[2][0], groups[0][0], jobs[0]]
        )
        q = qnet.q_values(state)
        q_rot = qnet.q_values(rotated)
        g = encoder.group_size
        assert np.allclose(q_rot[: 2 * g], q[g:])
        assert np.allclose(q_rot[2 * g :], q[:g])


class TestTraining:
    def test_train_step_reduces_loss(self, qnet, encoder, rng):
        states = random_states(encoder, 64, rng)
        actions = rng.integers(0, 6, size=64)
        targets = -np.abs(rng.normal(size=64))
        optimizer = qnet.make_optimizer(lr=3e-3)
        first = qnet.train_step(states, actions, targets, optimizer)
        for _ in range(150):
            last = qnet.train_step(states, actions, targets, optimizer)
        assert last < 0.3 * first

    def test_train_step_batch_mismatch_raises(self, qnet, encoder, rng):
        states = random_states(encoder, 4, rng)
        with pytest.raises(ValueError, match="mismatch"):
            qnet.train_step(states, np.zeros(3, dtype=int), np.zeros(4),
                            qnet.make_optimizer())

    def test_gradients_reach_autoencoder(self, qnet, encoder, rng):
        states = random_states(encoder, 8, rng)
        actions = rng.integers(0, 6, size=8)
        targets = rng.normal(size=8)
        before = [p.value.copy() for p in qnet.autoencoder.encoder.parameters()]
        qnet.train_step(states, actions, targets, qnet.make_optimizer(lr=1e-2))
        after = [p.value for p in qnet.autoencoder.encoder.parameters()]
        assert any(not np.allclose(b, a) for b, a in zip(before, after))

    def test_huber_loss_path(self, qnet, encoder, rng):
        states = random_states(encoder, 8, rng)
        actions = rng.integers(0, 6, size=8)
        targets = rng.normal(size=8) * 100
        loss = qnet.train_step(states, actions, targets, qnet.make_optimizer(),
                               huber_delta=1.0)
        assert np.isfinite(loss)

    def test_pretrain_autoencoder_improves_reconstruction(self, qnet, encoder, rng):
        states = random_states(encoder, 200, rng)
        groups, _ = encoder.split(states)
        samples = groups.reshape(-1, encoder.group_dim)
        before = qnet.autoencoder.reconstruction_loss(samples)
        qnet.pretrain_autoencoder(states, epochs=30, rng=rng)
        after = qnet.autoencoder.reconstruction_loss(samples)
        assert after < before


class TestClone:
    def test_clone_identical_predictions(self, qnet, encoder, rng):
        states = random_states(encoder, 4, rng)
        twin = qnet.clone()
        assert np.allclose(qnet.predict(states), twin.predict(states))

    def test_clone_is_independent(self, qnet, encoder, rng):
        states = random_states(encoder, 4, rng)
        twin = qnet.clone()
        qnet.train_step(states, np.zeros(4, dtype=int), np.ones(4) * 5,
                        qnet.make_optimizer(lr=0.1))
        assert not np.allclose(qnet.predict(states), twin.predict(states))


class TestFlatQNetwork:
    def test_shapes(self, encoder, rng):
        flat = FlatQNetwork(encoder, hidden=(16,), rng=rng)
        states = random_states(encoder, 5, rng)
        assert flat.predict(states).shape == (5, 6)
        assert flat.q_values(states[0]).shape == (6,)

    def test_train_step_reduces_loss(self, encoder, rng):
        flat = FlatQNetwork(encoder, hidden=(16,), rng=rng)
        states = random_states(encoder, 64, rng)
        actions = rng.integers(0, 6, size=64)
        targets = -np.abs(rng.normal(size=64))
        optimizer = flat.make_optimizer(lr=3e-3)
        first = flat.train_step(states, actions, targets, optimizer)
        for _ in range(150):
            last = flat.train_step(states, actions, targets, optimizer)
        assert last < 0.3 * first

    def test_train_step_batch_mismatch_raises(self, encoder, rng):
        flat = FlatQNetwork(encoder, hidden=(16,), rng=rng)
        states = random_states(encoder, 4, rng)
        with pytest.raises(ValueError, match="mismatch"):
            flat.train_step(states, [2], [0.5], flat.make_optimizer())

    def test_clone(self, encoder, rng):
        flat = FlatQNetwork(encoder, rng=rng)
        states = random_states(encoder, 3, rng)
        assert np.allclose(flat.predict(states), flat.clone().predict(states))

    def test_pretrain_autoencoder_noop(self, encoder, rng):
        assert FlatQNetwork(encoder, rng=rng).pretrain_autoencoder(None) == []
