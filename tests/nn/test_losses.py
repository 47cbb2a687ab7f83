"""Tests for repro.nn.losses."""

import numpy as np
import pytest

from repro.nn.losses import MSELoss
from tests.helpers import numerical_gradient


class TestMSE:
    def test_value(self):
        loss = MSELoss()
        pred = np.array([1.0, 2.0])
        target = np.array([0.0, 0.0])
        assert loss.forward(pred, target) == pytest.approx(2.5)

    def test_zero_at_match(self, rng):
        x = rng.normal(size=(3, 3))
        assert MSELoss().forward(x, x.copy()) == 0.0

    def test_gradient_matches_numerical(self, rng):
        loss = MSELoss()
        pred = rng.normal(size=(4, 2))
        target = rng.normal(size=(4, 2))
        analytic = loss.backward(pred, target)
        numeric = numerical_gradient(lambda: loss.forward(pred, target), pred)
        assert np.allclose(analytic, numeric, atol=1e-6)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            MSELoss().forward(np.zeros(2), np.zeros(3))
