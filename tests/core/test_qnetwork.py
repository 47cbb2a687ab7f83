"""Tests for repro.core.qnetwork: the Fig.-6 architecture."""

import numpy as np
import pytest

from repro.core.qnetwork import FlatQNetwork, HierarchicalQNetwork, loss_terms
from repro.core.state import StateEncoder
from tests.helpers import numerical_gradient


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

    @pytest.mark.parametrize(
        "actions, match",
        [
            ([0, 6], r"\[0, 6\), got 0 to 6"),
            ([-1, 2], "got -1 to 2"),
            ([], "at least one"),
        ],
    )
    @pytest.mark.parametrize("flat", [False, True])
    def test_train_step_refuses_actions_outside_the_servers(
        self, qnet, encoder, rng, flat, actions, match
    ):
        net = FlatQNetwork(encoder, hidden=(16,), rng=rng) if flat else qnet
        optimizer = net.make_optimizer()
        before = [p.value.copy() for p in net.parameters()]
        n = len(actions)
        states, targets = random_states(encoder, n, rng), np.zeros(n)
        with pytest.raises(ValueError, match=match):
            net.train_step(states, np.array(actions, dtype=int), targets, optimizer)
        for param, value in zip(net.parameters(), before):
            assert np.array_equal(param.value, value)

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


def summed(err: np.ndarray, huber_delta: float | None):
    """The minibatch loss ``loss_terms`` gives, and its derivative."""
    terms, derr = loss_terms(err, huber_delta)
    return float(np.sum(terms)), derr


class TestLossTerms:
    """The chosen-action Q-loss: summed MSE, or Huber with ``huber_delta``."""

    def test_mse_value_and_derivative(self):
        loss, derr = summed(np.array([0.5, -2.0]), None)
        assert loss == pytest.approx(4.25)
        assert np.array_equal(derr, [1.0, -4.0])

    def test_huber_quadratic_inside_delta(self):
        loss, _ = summed(np.array([0.5]), 1.0)
        assert loss == pytest.approx(0.125)

    def test_huber_linear_outside_delta(self):
        # 0.5 * 1^2 + 1 * (3 - 1) = 2.5
        loss, _ = summed(np.array([3.0]), 1.0)
        assert loss == pytest.approx(2.5)

    def test_huber_is_half_the_squared_error_inside_delta(self, rng):
        err = rng.uniform(-0.9, 0.9, size=7)
        huber, huber_derr = summed(err, 1.0)
        mse, mse_derr = summed(err, None)
        assert huber == pytest.approx(0.5 * mse)
        assert np.allclose(huber_derr, 0.5 * mse_derr)

    def test_huber_derivative_clipped_at_delta(self):
        _, derr = summed(np.array([100.0, -100.0, 0.3]), 1.0)
        assert np.array_equal(derr, [1.0, -1.0, 0.3])

    def test_huber_continuous_at_delta(self):
        eps = 1e-9
        below, _ = summed(np.array([1.0 - eps]), 1.0)
        above, _ = summed(np.array([1.0 + eps]), 1.0)
        assert below == pytest.approx(above, abs=1e-6)

    @pytest.mark.parametrize("huber_delta", [None, 0.7])
    def test_derivative_matches_numerical(self, rng, huber_delta):
        err = rng.normal(size=8) * 2

        def loss():
            return summed(err, huber_delta)[0]

        _, derr = summed(err, huber_delta)
        assert np.allclose(derr, numerical_gradient(loss, err), atol=1e-5)
