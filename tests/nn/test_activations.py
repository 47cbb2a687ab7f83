"""Tests for repro.nn.activations: values and analytic derivatives."""

import numpy as np
import pytest

from repro.nn.activations import ELU, Identity, Sigmoid, Tanh, get_activation
from tests.helpers import sigmoid_masked

ALL_ACTIVATIONS = [
    Identity(),
    ELU(),
    Sigmoid(),
    Tanh(),
]


def _check_derivative(act, z):
    """Analytic derivative must match central differences away from kinks."""
    eps = 1e-6
    y = act.forward(z)
    analytic = act.derivative(z, y)
    numeric = (act.forward(z + eps) - act.forward(z - eps)) / (2 * eps)
    assert np.allclose(analytic, numeric, atol=1e-5), f"{act!r}"


@pytest.mark.parametrize("act", ALL_ACTIVATIONS, ids=lambda a: repr(a))
class TestDerivatives:
    def test_matches_numerical(self, act, rng):
        # Keep clear of the ELU kink at exactly 0.
        z = rng.uniform(-3, 3, size=50)
        z = z[np.abs(z) > 1e-3]
        _check_derivative(act, z)

    def test_forward_shape_preserved(self, act, rng):
        z = rng.normal(size=(4, 7))
        assert act.forward(z).shape == (4, 7)


class TestELU:
    def test_positive_identity(self):
        z = np.array([0.5, 1.0, 10.0])
        assert np.allclose(ELU().forward(z), z)

    def test_negative_saturates_at_minus_one(self):
        assert ELU().forward(np.array([-50.0]))[0] == pytest.approx(-1.0)

    def test_continuous_at_zero(self):
        elu = ELU()
        assert elu.forward(np.array([-1e-12]))[0] == pytest.approx(0.0, abs=1e-10)
        assert elu.forward(np.array([0.0]))[0] == 0.0

    def test_takes_no_alpha(self):
        with pytest.raises(TypeError):
            ELU(alpha=0.5)


class TestSigmoid:
    def test_range_and_midpoint(self):
        s = Sigmoid()
        assert s.forward(np.array([0.0]))[0] == pytest.approx(0.5)
        out = s.forward(np.array([-1000.0, 1000.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    def test_one_pass_matches_masked_form_bit_for_bit(self, rng):
        edges = [0.0, 1e-300, 36.0, 745.0, 800.0, np.inf]
        special = np.array(edges + [-v for v in edges] + [np.nan])
        special = np.append(special, np.copysign(np.nan, -1.0))
        z = np.concatenate([special, rng.normal(0.0, 20.0, size=997)])
        for block in (z, z.reshape(-1, 3)[:, :2], z[:12].reshape(3, 4)):
            got, want = Sigmoid().forward(block), sigmoid_masked(block)
            # Bit patterns, so zeros' and NaNs' sign bits count too.
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_no_overflow_warnings(self):
        with np.errstate(over="raise"):
            Sigmoid().forward(np.array([-800.0, 800.0]))


class TestRegistry:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("identity", Identity),
            ("elu", ELU),
            ("sigmoid", Sigmoid),
            ("tanh", Tanh),
        ],
    )
    def test_lookup_by_name(self, name, cls):
        assert isinstance(get_activation(name), cls)

    def test_case_insensitive(self):
        assert isinstance(get_activation("ELU"), ELU)

    def test_instance_passthrough(self):
        inst = ELU()
        assert get_activation(inst) is inst

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown activation"):
            get_activation("swishish")
