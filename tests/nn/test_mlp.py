"""Tests for repro.nn.mlp."""

import numpy as np
import pytest

from repro.nn.losses import MSELoss
from repro.nn.mlp import MLP
from repro.nn.optim import Adam
from tests.helpers import numerical_gradient


def train(mlp, x, y, epochs, lr, rng, batch_size=32, max_grad_norm=None):
    """Minibatch MSE regression with Adam; returns the per-epoch mean loss."""
    loss = MSELoss()
    optimizer = Adam(mlp.parameters(), lr=lr)
    history = []
    for _ in range(epochs):
        order = rng.permutation(len(x))
        losses = []
        for start in range(0, len(x), batch_size):
            idx = order[start : start + batch_size]
            pred, caches = mlp.forward(x[idx])
            losses.append(loss.forward(pred, y[idx]))
            optimizer.zero_grad()
            mlp.backward(loss.backward(pred, y[idx]), caches)
            if max_grad_norm is not None:
                optimizer.clip_grad_norm(max_grad_norm)
            optimizer.step()
        history.append(float(np.mean(losses)))
    return history


class TestConstruction:
    def test_layer_count(self, rng):
        mlp = MLP([4, 8, 8, 2], rng=rng)
        assert len(mlp.layers) == 3
        assert mlp.in_features == 4
        assert mlp.out_features == 2

    def test_hidden_vs_output_activation(self, rng):
        mlp = MLP(
            [2, 4, 1],
            hidden_activation="elu",
            output_activation="identity",
            rng=rng,
        )
        assert mlp.layers[0].activation.name == "elu"
        assert mlp.layers[1].activation.name == "identity"

    def test_too_few_sizes_raise(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng=rng)


class TestForwardBackward:
    def test_predict_shape(self, rng):
        mlp = MLP([3, 5, 2], rng=rng)
        assert mlp.predict(rng.normal(size=(7, 3))).shape == (7, 2)

    def test_full_gradcheck(self, rng):
        mlp = MLP([3, 4, 2], hidden_activation="tanh", rng=rng)
        x = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 2))

        def loss():
            return 0.5 * float(np.sum((mlp.predict(x) - target) ** 2))

        out, caches = mlp.forward(x)
        mlp.zero_grad()
        dx = mlp.backward(out - target, caches)

        for param in mlp.parameters():
            numeric = numerical_gradient(loss, param.value)
            assert np.allclose(param.grad, numeric, atol=1e-5), param.name
        assert np.allclose(dx, numerical_gradient(loss, x), atol=1e-5)


class TestTraining:
    """Backward passes and Adam steps together minimise a regression loss."""

    def test_learns_linear_map(self, rng):
        true_w = rng.normal(size=(3, 2))
        x = rng.normal(size=(200, 3))
        y = x @ true_w
        mlp = MLP([3, 16, 2], rng=rng)
        history = train(mlp, x, y, epochs=150, lr=5e-3, rng=rng)
        assert history[-1] < 0.05 * history[0]

    def test_learns_xor(self, rng):
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([[0.0], [1.0], [1.0], [0.0]])
        mlp = MLP([2, 8, 1], hidden_activation="tanh", rng=rng)
        train(mlp, x, y, epochs=800, lr=0.02, rng=rng, batch_size=4)
        assert np.all(np.abs(mlp.predict(x) - y) < 0.3)

    def test_clipped_steps_stay_finite_on_large_targets(self, rng):
        mlp = MLP([2, 4, 1], rng=rng)
        x = rng.normal(size=(16, 2)) * 100
        y = rng.normal(size=(16, 1)) * 100
        history = train(mlp, x, y, epochs=3, lr=1e-3, rng=rng, max_grad_norm=1.0)
        assert all(np.isfinite(h) for h in history)
        assert all(np.isfinite(p.value).all() for p in mlp.parameters())


class TestSharing:
    def test_share_with_aliases_all_layers(self, rng):
        a = MLP([2, 4, 1], rng=rng)
        b = MLP([2, 4, 1], rng=rng)
        b.share_with(a)
        assert b.predict(np.ones((1, 2))) == pytest.approx(a.predict(np.ones((1, 2))))
        ids_a = set(id(p) for p in a.parameters())
        ids_b = set(id(p) for p in b.parameters())
        assert len(ids_a ^ ids_b) == 0

    def test_share_with_shape_mismatch(self, rng):
        a = MLP([2, 4, 1], rng=rng)
        b = MLP([2, 5, 1], rng=rng)
        with pytest.raises(ValueError):
            b.share_with(a)
