"""Tests for repro.nn.initializers."""

import numpy as np
import pytest

from repro.nn.initializers import constant, normal, xavier_uniform, zeros


class TestXavierUniform:
    def test_shape(self, rng):
        w = xavier_uniform(rng, 10, 20)
        assert w.shape == (10, 20)

    def test_within_glorot_limit(self, rng):
        fan_in, fan_out = 30, 40
        w = xavier_uniform(rng, fan_in, fan_out)
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= limit)

    def test_deterministic_given_seed(self):
        a = xavier_uniform(np.random.default_rng(3), 5, 5)
        b = xavier_uniform(np.random.default_rng(3), 5, 5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("fan_in,fan_out", [(0, 5), (5, 0), (-1, 5)])
    def test_invalid_fans_raise(self, rng, fan_in, fan_out):
        with pytest.raises(ValueError):
            xavier_uniform(rng, fan_in, fan_out)


class TestNormal:
    def test_paper_lstm_init_statistics(self, rng):
        w = normal(rng, (100, 100), mean=0.0, std=1.0)
        assert abs(w.mean()) < 0.05
        assert abs(w.std() - 1.0) < 0.05

    def test_negative_std_raises(self, rng):
        with pytest.raises(ValueError):
            normal(rng, (2, 2), std=-1.0)


class TestZerosConstant:
    def test_zeros(self):
        z = zeros((3, 4))
        assert z.shape == (3, 4)
        assert np.all(z == 0.0)

    def test_constant_point_one_bias(self):
        b = constant((7,), 0.1)
        assert np.all(b == 0.1)
        assert b.dtype == np.float64
