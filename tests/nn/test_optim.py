"""Tests for repro.nn.optim: SGD, Adam, gradient clipping."""

import numpy as np
import pytest

from repro.nn.optim import SGD, Adam
from repro.nn.parameter import Parameter
from tests.helpers import LoopAdam, assert_same_adam, clip_grad_norm_loop


def clip_grad_norm(parameters, max_norm):
    """Clip through an optimizer over ``parameters``, as the fit loops do."""
    return SGD(parameters).clip_grad_norm(max_norm)


def random_parameters(rng, shapes=((5, 7), (7,), (7, 3), (3,), (), (1, 1))):
    """Parameters of assorted shapes, 0-d included, with random gradients."""
    params = [
        Parameter(rng.normal(size=shape), name=f"p{i}")
        for i, shape in enumerate(shapes)
    ]
    for p in params:
        p.grad[...] = rng.normal(size=p.shape)
    return params


def twins(params):
    """Independent copies of ``params``, gradients included."""
    return [p.copy() for p in params]


def quadratic_step(params, optimizer, steps=200):
    """Minimize sum of squares; returns final values."""
    for _ in range(steps):
        optimizer.zero_grad()
        for p in params:
            p.accumulate(2.0 * p.value)
        optimizer.step()
    return [p.value for p in params]


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = Parameter(np.zeros(3))
        p.accumulate(np.array([1.0, 0.0, 0.0]))
        norm = clip_grad_norm([p], max_norm=10.0)
        assert norm == pytest.approx(1.0)
        assert np.allclose(p.grad, [1.0, 0.0, 0.0])

    def test_clips_to_max_norm(self):
        p = Parameter(np.zeros(2))
        p.accumulate(np.array([3.0, 4.0]))  # norm 5
        pre = clip_grad_norm([p], max_norm=1.0)
        assert pre == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_global_norm_across_parameters(self):
        a = Parameter(np.zeros(1))
        b = Parameter(np.zeros(1))
        a.accumulate(np.array([3.0]))
        b.accumulate(np.array([4.0]))
        clip_grad_norm([a, b], max_norm=1.0)
        total = float(np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2))
        assert total == pytest.approx(1.0)

    def test_direction_preserved(self):
        p = Parameter(np.zeros(2))
        p.accumulate(np.array([30.0, 40.0]))
        clip_grad_norm([p], max_norm=5.0)
        assert np.allclose(p.grad / np.linalg.norm(p.grad), [0.6, 0.8])

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([Parameter(np.zeros(1))], max_norm=0.0)


class TestSGD:
    def test_plain_step(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        p.accumulate(np.array([2.0]))
        opt.step()
        assert p.value[0] == pytest.approx(0.8)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = SGD([p], lr=0.1)
        (final,) = quadratic_step([p], opt)
        assert np.allclose(final, 0.0, atol=1e-6)

    def test_momentum_accelerates(self):
        slow = Parameter(np.array([10.0]))
        fast = Parameter(np.array([10.0]))
        opt_slow = SGD([slow], lr=0.01)
        opt_fast = SGD([fast], lr=0.01, momentum=0.9)
        quadratic_step([slow], opt_slow, steps=50)
        quadratic_step([fast], opt_fast, steps=50)
        assert abs(fast.value[0]) < abs(slow.value[0])

    @pytest.mark.parametrize("bad_lr", [0.0, -1.0])
    def test_invalid_lr(self, bad_lr):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=bad_lr)

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], momentum=1.0)

    def test_empty_parameter_list_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0, 0.5]))
        opt = Adam([p], lr=0.1)
        quadratic_step([p], opt, steps=500)
        assert np.allclose(p.value, 0.0, atol=1e-3)

    def test_first_step_size_is_lr(self):
        # With bias correction, |step 1| == lr regardless of gradient scale.
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.01)
        p.accumulate(np.array([1234.0]))
        opt.step()
        assert p.value[0] == pytest.approx(1.0 - 0.01, rel=1e-6)

    def test_shared_parameter_updated_once(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p, p], lr=0.5)  # duplicate reference
        assert len(opt.parameters) == 1
        p.accumulate(np.array([1.0]))
        opt.step()
        assert p.value[0] == pytest.approx(0.5)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], beta1=1.0)
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], beta2=-0.1)

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], eps=0.0)

    def test_zero_grad(self):
        p = Parameter(np.zeros(2))
        opt = Adam([p])
        p.accumulate(np.ones(2))
        opt.zero_grad()
        assert np.all(p.grad == 0.0)


class TestPacked:
    """The packed optimizers against the per-array oracle in tests/helpers.py."""

    def test_parameters_become_views_of_one_buffer(self, rng):
        params = random_parameters(rng)
        before = [(p.value.copy(), p.grad.copy()) for p in params]
        opt = Adam(params)
        offset = 0
        for p, (value, grad) in zip(params, before):
            assert np.shares_memory(p.value, opt.values)
            assert np.shares_memory(p.grad, opt.grads)
            assert np.array_equal(p.value, value) and np.array_equal(p.grad, grad)
            assert np.array_equal(opt.values[offset : offset + p.size], value.ravel())
            offset += p.size
        assert opt.values.size == offset

    @pytest.mark.parametrize("lr", [1e-3, 0.05])
    def test_adam_matches_per_array_loop(self, rng, lr):
        params = random_parameters(rng)
        oracle_params = twins(params)
        packed, oracle = Adam(params, lr=lr), LoopAdam(oracle_params, lr=lr)
        for _ in range(60):
            grads = [rng.normal(scale=10.0, size=p.shape) for p in params]
            norms = []
            for opt in (packed, oracle):
                opt.zero_grad()
                for p, g in zip(opt.parameters, grads):
                    p.accumulate(g)
                norms.append(opt.clip_grad_norm(10.0))
                opt.step()
            assert norms[0] == norms[1]
            for mine, theirs in zip(packed.parameters, oracle.parameters):
                assert np.array_equal(mine.grad, theirs.grad)
        assert_same_adam(packed, oracle)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_sgd_matches_per_array_loop(self, rng, momentum):
        params = random_parameters(rng)
        expected = twins(params)
        velocity = [np.zeros_like(p.value) for p in expected]
        opt = SGD(params, lr=0.01, momentum=momentum)
        for _ in range(50):
            opt.step()
            for p, v in zip(expected, velocity):
                if momentum:
                    v *= momentum
                    v += p.grad
                    p.value -= 0.01 * v
                else:
                    p.value -= 0.01 * p.grad
        for mine, theirs in zip(params, expected):
            assert np.array_equal(mine.value, theirs.value)

    @pytest.mark.parametrize("max_norm", [0.5, 1e6])
    def test_clip_matches_per_array_loop(self, rng, max_norm):
        params = random_parameters(rng)
        oracle_params = twins(params)
        norm = SGD(params).clip_grad_norm(max_norm)
        assert norm == clip_grad_norm_loop(oracle_params, max_norm)
        for mine, theirs in zip(params, oracle_params):
            assert np.array_equal(mine.grad, theirs.grad)

    def test_zero_grad_clears_every_parameter(self, rng):
        params = random_parameters(rng)
        opt = Adam(params)
        opt.zero_grad()
        assert all(np.all(p.grad == 0.0) for p in params)
        assert not np.any(opt.grads)

    def test_second_optimizer_reuses_a_consecutive_run(self, rng):
        params = random_parameters(rng)
        whole = Adam(params)
        part = Adam(params[1:4])
        assert part.values.base is whole.values
        assert part.grads.base is whole.grads
        assert SGD(params).values.base is whole.values  # the whole run again
        # A step through the part moves the whole's parameters too.
        before = whole.values.copy()
        part.step()
        assert not np.array_equal(whole.values, before)
        assert np.array_equal(whole.values[: params[0].size], before[: params[0].size])

    def test_out_of_order_packed_parameters_raise(self, rng):
        params = random_parameters(rng)
        Adam(params)
        with pytest.raises(ValueError, match="consecutive run"):
            Adam([params[2], params[0]])
