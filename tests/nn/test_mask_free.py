"""The mask-free activation, loss and backward forms against the masked
forms they replaced.

``ELU.derivative`` is ``min(y + 1, 1)`` where it was a select on
``z > 0``; ``Sigmoid.forward`` takes its numerator as ``max(e, z >= 0)``
where it selected 1 or ``e``; ``loss_terms`` clips the Huber derivative
with a max and a min where it called ``np.clip``; and ``Dense.backward``
scales the derivative in place and sums bias gradients with
``np.add.reduce``. The oracles in ``tests/helpers.py`` keep the old
forms. ``train_step_loop`` there runs the same ``Dense.backward`` as the
fast path, so only these tests can catch a fault in it.

Hypothesis draws float64 arrays that mix ±0, ±inf, NaNs of either sign,
subnormals and magnitudes up to 1e300, with a fixed seed
(``derandomize``). Every result must carry the oracle's bits: the same
values, NaNs in the same places and the same sign bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.core.qnetwork import loss_terms
from repro.nn.activations import ELU, Sigmoid
from repro.nn.layers import Dense, as_batch
from tests.helpers import (
    dense_backward_masked,
    elu_derivative_where,
    elu_split,
    loss_terms_clip,
    sigmoid_masked,
)

SPECIALS = [
    0.0,
    -0.0,
    math.inf,
    -math.inf,
    math.nan,
    -math.nan,
    5e-324,  # the smallest subnormal
    -5e-324,
    1e-310,
    -2.2250738585072014e-308,  # the smallest normal
    1e300,
    -1e300,
    36.0,  # where exp(-z) + 1 rounds to 1
    -745.0,  # where exp(z) underflows to a subnormal or 0
    800.0,
    1.0,
    -1.0,
]
VALUES = st.one_of(
    st.sampled_from(SPECIALS),
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-40.0, max_value=40.0),
)


def float_arrays(shape=None):
    if shape is None:
        shape = array_shapes(min_dims=1, max_dims=2, max_side=9)
    return arrays(np.float64, shape, elements=VALUES)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.signbit(got), np.signbit(want))
    got_bits = np.ascontiguousarray(got).view(np.uint64)
    want_bits = np.ascontiguousarray(want).view(np.uint64)
    assert np.array_equal(got_bits, want_bits)


def views(z: np.ndarray, transpose: bool) -> np.ndarray:
    """``z``, or its transpose: a strided view, as the LSTM's gate
    slices are."""
    return z.T if transpose else z


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z=float_arrays(), transpose=st.booleans())
def test_elu_forward_and_derivative_match_the_select(z, transpose):
    z = views(z, transpose)
    elu = ELU()
    with np.errstate(all="ignore"):
        y = elu.forward(z)
        assert_same_bits(y, elu_split(z))
        assert_same_bits(elu.derivative(z, y), elu_derivative_where(z, y))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z=float_arrays(), transpose=st.booleans())
def test_sigmoid_matches_the_masked_form(z, transpose):
    z = views(z, transpose)
    with np.errstate(all="ignore"):
        assert_same_bits(Sigmoid().forward(z), sigmoid_masked(z))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    err=float_arrays(array_shapes(min_dims=1, max_dims=1, max_side=40)),
    huber_delta=st.sampled_from([None, 1.0, 0.5, 3.0, 5e-324, 1e300]),
)
def test_loss_terms_match_the_clip(err, huber_delta):
    with np.errstate(all="ignore"):
        terms, derr = loss_terms(err, huber_delta)
        want_terms, want_derr = loss_terms_clip(err, huber_delta)
    assert_same_bits(terms, want_terms)
    assert_same_bits(derr, want_derr)


@st.composite
def backward_cases(draw):
    batch = draw(st.integers(1, 8))
    fan_in, fan_out = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cuts = draw(st.lists(st.integers(1, batch), max_size=3, unique=True))
    bounds = [0, *sorted(c for c in cuts if c < batch), batch]
    return dict(
        activation=draw(st.sampled_from(["elu", "identity", "sigmoid", "tanh"])),
        fan_in=fan_in,
        fan_out=fan_out,
        seed=draw(st.integers(0, 2**32 - 1)),
        x=draw(
            arrays(
                np.float64,
                (batch, fan_in),
                elements=st.floats(min_value=-10.0, max_value=10.0),
            )
        ),
        z=draw(float_arrays((batch, fan_out))),
        dy=draw(float_arrays((batch, fan_out))),
        spans=draw(
            st.sampled_from(
                [None, [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]]
            )
        ),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=backward_cases())
def test_dense_backward_matches_the_masked_product_and_sum(case):
    layer = Dense(
        case["fan_in"],
        case["fan_out"],
        activation=case["activation"],
        rng=np.random.default_rng(case["seed"]),
    )
    z = case["z"]
    with np.errstate(all="ignore"):
        cache = {"x": case["x"], "z": z, "y": layer.activation.forward(z)}
        dx = layer.backward(case["dy"], cache, case["spans"])
        grad_w, grad_b, want_dx = dense_backward_masked(
            layer, case["dy"], cache, case["spans"]
        )
    assert_same_bits(layer.weight.grad, grad_w)
    assert_same_bits(layer.bias.grad, grad_b)
    assert_same_bits(dx, want_dx)


@pytest.mark.parametrize(
    "value",
    [
        [[1, 2], [3, 4]],
        (0.5, -1.0),
        3.0,
        np.arange(6).reshape(2, 3),
        np.ones((2, 3), dtype=np.float32),
        np.ones((2, 3), dtype=">f8"),
        np.linspace(0.0, 1.0, 4),
        np.float64(2.5),
        np.ma.masked_array(np.ones((2, 2)), mask=[[0, 1], [0, 0]]),
        np.ones((2, 3, 4)),
        np.ones((3, 2)).T,
    ],
    ids=lambda v: type(v).__name__,
)
def test_as_batch_coerces_what_atleast_2d_coerces(value):
    want = np.atleast_2d(np.asarray(value, dtype=np.float64))
    got = as_batch(value)
    assert type(got) is np.ndarray
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want)
    # Only a float64 ndarray that already has the rank passes through.
    passes = (
        type(value) is np.ndarray and value.dtype == np.float64 and value.ndim >= 2
    )
    assert (got is value) == passes
