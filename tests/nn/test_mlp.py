"""Tests for repro.nn.mlp."""

import numpy as np
import pytest

import repro.nn.mlp as mlp_module
from repro.nn.mlp import MLP
from repro.nn.optim import Adam
from tests.helpers import (
    LoopAdam,
    assert_same_adam,
    numerical_gradient,
    record_optimizers,
)


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


class TestFit:
    def test_learns_linear_map(self, rng):
        true_w = rng.normal(size=(3, 2))
        x = rng.normal(size=(200, 3))
        y = x @ true_w
        mlp = MLP([3, 16, 2], rng=rng)
        history = mlp.fit(x, y, epochs=150, lr=5e-3, rng=rng)
        assert history[-1] < 0.05 * history[0]

    def test_learns_xor(self, rng):
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([[0.0], [1.0], [1.0], [0.0]])
        mlp = MLP([2, 8, 1], hidden_activation="tanh", rng=rng)
        mlp.fit(x, y, epochs=800, batch_size=4, lr=0.02, rng=rng)
        pred = mlp.predict(x)
        assert np.all(np.abs(pred - y) < 0.3)

    def test_loss_history_length(self, rng):
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=(20, 1))
        mlp = MLP([2, 4, 1], rng=rng)
        history = mlp.fit(x, y, epochs=7, rng=rng)
        assert len(history) == 7

    def test_mismatched_rows_raise(self, rng):
        mlp = MLP([2, 4, 1], rng=rng)
        with pytest.raises(ValueError):
            mlp.fit(np.zeros((5, 2)), np.zeros((4, 1)))

    def test_grad_clipping_path_runs(self, rng):
        mlp = MLP([2, 4, 1], rng=rng)
        x = rng.normal(size=(16, 2)) * 100
        y = rng.normal(size=(16, 1)) * 100
        history = mlp.fit(x, y, epochs=3, max_grad_norm=1.0, rng=rng)
        assert all(np.isfinite(h) for h in history)


class TestPackedFit:
    @pytest.mark.parametrize("max_grad_norm", [None, 1.0])
    def test_fit_matches_per_array_adam(self, monkeypatch, max_grad_norm):
        data = np.random.default_rng(3)
        x = data.normal(size=(200, 3)) * 5.0
        y = data.normal(size=(200, 2)) * 5.0
        runs = {}
        for name, cls in (("packed", Adam), ("oracle", LoopAdam)):
            with monkeypatch.context() as mp:
                made = record_optimizers(mp, mlp_module, cls)
                net = MLP([3, 16, 2], rng=np.random.default_rng(1))
                history = net.fit(
                    x,
                    y,
                    epochs=8,
                    max_grad_norm=max_grad_norm,
                    rng=np.random.default_rng(2),
                )
            runs[name] = (made[0], history)
        (packed, packed_history), (oracle, oracle_history) = runs.values()
        assert packed._t == 8 * 7
        assert_same_adam(packed, oracle)
        assert packed_history == oracle_history


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
