"""Tests for repro.nn.layers: Dense forward/backward and weight sharing."""

import numpy as np
import pytest

from repro.nn.layers import Dense, Module
from repro.nn.parameter import Parameter
from tests.helpers import numerical_gradient


class TestDenseForward:
    def test_linear_layer_matches_matmul(self, rng):
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(5, 3))
        y, _ = layer.forward(x)
        expected = x @ layer.weight.value + layer.bias.value
        assert np.allclose(y, expected)

    def test_1d_input_promoted_to_batch(self, rng):
        layer = Dense(3, 2, rng=rng)
        y, _ = layer.forward(np.ones(3))
        assert y.shape == (1, 2)

    def test_wrong_width_raises(self, rng):
        layer = Dense(3, 2, rng=rng)
        with pytest.raises(ValueError, match="input width"):
            layer.forward(np.ones((1, 4)))

    def test_activation_applied(self, rng):
        layer = Dense(2, 2, activation="elu", rng=rng)
        layer.weight.value = np.eye(2)
        layer.bias.value = np.array([-10.0, 10.0])
        y, _ = layer.forward(np.zeros((1, 2)))
        assert np.allclose(y, [[np.expm1(-10.0), 10.0]])

    @pytest.mark.parametrize("bad", [(0, 3), (3, 0), (-1, 1)])
    def test_invalid_widths_raise(self, rng, bad):
        with pytest.raises(ValueError):
            Dense(bad[0], bad[1], rng=rng)

    def test_rng_required_without_shared_weight(self):
        with pytest.raises(ValueError, match="rng"):
            Dense(2, 2)


class TestDenseBackward:
    @pytest.mark.parametrize("activation", ["identity", "elu", "tanh", "sigmoid"])
    def test_gradcheck_weight_bias_input(self, rng, activation):
        layer = Dense(4, 3, activation=activation, rng=rng)
        x = rng.normal(size=(6, 4))
        target = rng.normal(size=(6, 3))

        def loss():
            y, _ = layer.forward(x)
            return 0.5 * float(np.sum((y - target) ** 2))

        y, cache = layer.forward(x)
        layer.zero_grad()
        dx = layer.backward(y - target, cache)

        num_w = numerical_gradient(loss, layer.weight.value)
        num_b = numerical_gradient(loss, layer.bias.value)
        num_x = numerical_gradient(loss, x)
        assert np.allclose(layer.weight.grad, num_w, atol=1e-5)
        assert np.allclose(layer.bias.grad, num_b, atol=1e-5)
        assert np.allclose(dx, num_x, atol=1e-5)

    def test_identity_backward_is_dy_times_one(self, rng):
        layer = Dense(3, 4, rng=rng)
        x = rng.normal(size=(5, 3))
        dy = rng.normal(size=(5, 4))
        dy[0, 0] = -0.0
        _, cache = layer.forward(x)
        dx = layer.backward(dy, cache)
        dz = dy * np.ones_like(dy)
        assert np.array_equal(dx, dz @ layer.weight.value.T)
        assert np.array_equal(layer.weight.grad, x.T @ dz)
        assert np.array_equal(layer.bias.grad, dz.sum(axis=0))

    def test_gradients_accumulate_over_calls(self, rng):
        layer = Dense(2, 2, rng=rng)
        x = rng.normal(size=(3, 2))
        y, cache = layer.forward(x)
        layer.backward(np.ones_like(y), cache)
        once = layer.weight.grad.copy()
        y, cache = layer.forward(x)
        layer.backward(np.ones_like(y), cache)
        assert np.allclose(layer.weight.grad, 2.0 * once)


class TestWeightSharing:
    def test_share_with_aliases_parameters(self, rng):
        a = Dense(3, 2, rng=rng)
        b = Dense(3, 2, rng=rng)
        b.share_with(a)
        assert b.weight is a.weight
        assert b.bias is a.bias

    def test_share_with_shape_mismatch_raises(self, rng):
        a = Dense(3, 2, rng=rng)
        b = Dense(2, 2, rng=rng)
        with pytest.raises(ValueError, match="share"):
            b.share_with(a)

    def test_shared_constructor_params(self, rng):
        w = Parameter(np.ones((2, 2)))
        b = Parameter(np.zeros(2))
        layer = Dense(2, 2, weight=w, bias=b)
        assert layer.weight is w

    def test_shared_grads_sum_across_sites(self, rng):
        a = Dense(2, 2, rng=rng)
        b = Dense(2, 2, rng=rng)
        b.share_with(a)
        x = rng.normal(size=(4, 2))
        ya, ca = a.forward(x)
        yb, cb = b.forward(x)
        a.zero_grad()
        a.backward(np.ones_like(ya), ca)
        solo = a.weight.grad.copy()
        a.zero_grad()
        a.backward(np.ones_like(ya), ca)
        b.backward(np.ones_like(yb), cb)
        assert np.allclose(a.weight.grad, 2.0 * solo)


class TestModule:
    def test_parameters_deduplicated(self, rng):
        class Twin(Module):
            def __init__(self):
                self.a = Dense(2, 2, rng=rng)
                self.b = Dense(2, 2, rng=rng)
                self.b.share_with(self.a)

        twin = Twin()
        assert len(twin.parameters()) == 2  # one weight + one bias

    def test_num_parameters_counts_shared_once(self, rng):
        class Twin(Module):
            def __init__(self):
                self.a = Dense(3, 2, rng=rng)
                self.b = Dense(3, 2, rng=rng)
                self.b.share_with(self.a)

        assert Twin().num_parameters() == 3 * 2 + 2

    def test_state_dict_roundtrip(self, rng):
        layer = Dense(3, 2, rng=rng)
        snapshot = layer.state_dict()
        original = layer.weight.value.copy()
        layer.weight.value += 1.0
        layer.load_state_dict(snapshot)
        assert np.allclose(layer.weight.value, original)

    def test_load_state_dict_writes_into_the_packed_buffer(self, rng):
        from repro.nn.optim import Adam

        layer = Dense(3, 2, rng=rng)
        snapshot = Dense(3, 2, rng=rng).state_dict()
        opt = Adam(layer.parameters())
        layer.load_state_dict(snapshot)
        assert np.shares_memory(layer.weight.value, opt.values)
        assert np.array_equal(opt.values[:6], snapshot["0:dense.W"].ravel())
        assert np.array_equal(layer.bias.value, snapshot["1:dense.b"])

    def test_load_state_dict_shape_mismatch_raises(self, rng):
        layer = Dense(3, 2, rng=rng)
        other = Dense(3, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.load_state_dict(other.state_dict())

    def test_zero_grad_all(self, rng):
        layer = Dense(2, 2, rng=rng)
        layer.weight.accumulate(np.ones((2, 2)))
        layer.zero_grad()
        assert np.all(layer.weight.grad == 0.0)
