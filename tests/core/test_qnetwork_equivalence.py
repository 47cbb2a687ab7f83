"""Bit-exactness of the batched Sub-Q fast path vs the per-group loop.

The vectorized ``predict``/``train_step`` must be *bit-identical* — not
merely close — to the loop reference ``predict_loop``/``train_step_loop``
in ``tests/helpers.py``:
the fast path batches via numpy's stacked ``(K, batch, in) @ (in, out)``
matmul, which issues one identically-shaped GEMM per group, so every
floating-point operation matches the loop's. (Flattening to a single
``(K*batch, in)`` GEMM would *not* be bit-exact: BLAS selects different
kernels for different row counts, perturbing final ulps.) Assertions
therefore use ``array_equal``, never ``allclose``.
"""

import numpy as np
import pytest

from repro.core.qnetwork import HierarchicalQNetwork
from repro.core.state import StateEncoder
from tests.helpers import predict_loop, train_step_loop


def make_net(num_servers=6, num_groups=3, seed=0, **enc_kwargs):
    enc_kwargs.setdefault("include_power_state", True)
    enc_kwargs.setdefault("include_queue_state", True)
    encoder = StateEncoder(num_servers, num_groups=num_groups, **enc_kwargs)
    return HierarchicalQNetwork(
        encoder,
        autoencoder_hidden=(8, 4),
        subq_hidden=(16,),
        rng=np.random.default_rng(seed),
    )


def random_states(net, n, rng):
    return rng.uniform(0.0, 1.0, size=(n, net.encoder.state_dim))


class TestPredictEquivalence:
    @pytest.mark.parametrize("batch", [1, 2, 7, 33])
    def test_batched_predict_bit_identical(self, batch, rng):
        net = make_net()
        states = random_states(net, batch, rng)
        assert np.array_equal(net.predict(states), predict_loop(net, states))

    @pytest.mark.parametrize(
        "num_servers,num_groups", [(4, 2), (8, 4), (30, 3), (5, 1)]
    )
    def test_across_geometries(self, num_servers, num_groups, rng):
        net = make_net(num_servers, num_groups)
        states = random_states(net, 5, rng)
        assert np.array_equal(net.predict(states), predict_loop(net, states))

    def test_q_values_single_state(self, rng):
        net = make_net(30, 3)
        state = random_states(net, 1, rng)[0]
        assert np.array_equal(net.q_values(state), predict_loop(net, state[None, :])[0])


class TestTrainStepEquivalence:
    @pytest.mark.parametrize("batch", [1, 5, 32])
    @pytest.mark.parametrize("huber", [None, 1.0])
    def test_params_bit_identical_after_step(self, batch, huber, rng):
        fast = make_net(6, 3, seed=7)
        loop = fast.clone()
        states = random_states(fast, batch, rng)
        actions = rng.integers(0, 6, size=batch)
        targets = rng.normal(size=batch)

        loss_fast = fast.train_step(
            states, actions, targets, fast.make_optimizer(lr=1e-3), huber_delta=huber
        )
        opt_loop = loop.make_optimizer(lr=1e-3)
        loss_loop = train_step_loop(
            loop, states, actions, targets, opt_loop, huber_delta=huber
        )
        assert loss_fast == loss_loop
        for p_fast, p_loop in zip(fast.parameters(), loop.parameters()):
            assert np.array_equal(p_fast.value, p_loop.value), p_fast.name
            assert np.array_equal(p_fast.grad, p_loop.grad), p_fast.name

    def test_empty_group_handled_identically(self, rng):
        # All actions land in group 0; groups 1 and 2 see no samples.
        fast = make_net(6, 3, seed=3)
        loop = fast.clone()
        states = random_states(fast, 6, rng)
        actions = rng.integers(0, 2, size=6)  # group 0 only
        targets = rng.normal(size=6)
        fast.train_step(states, actions, targets, fast.make_optimizer())
        train_step_loop(loop, states, actions, targets, loop.make_optimizer())
        for p_fast, p_loop in zip(fast.parameters(), loop.parameters()):
            assert np.array_equal(p_fast.value, p_loop.value), p_fast.name

    def test_many_steps_stay_identical(self, rng):
        # Divergence compounds: 20 optimizer steps must stay bit-equal.
        fast = make_net(8, 4, seed=11)
        loop = fast.clone()
        opt_fast = fast.make_optimizer(lr=3e-3)
        opt_loop = loop.make_optimizer(lr=3e-3)
        for _ in range(20):
            states = random_states(fast, 16, rng)
            actions = rng.integers(0, 8, size=16)
            targets = rng.normal(size=16)
            fast.train_step(states, actions, targets, opt_fast)
            train_step_loop(loop, states, actions, targets, opt_loop)
        states = random_states(fast, 4, rng)
        assert np.array_equal(fast.predict(states), loop.predict(states))
        for p_fast, p_loop in zip(fast.parameters(), loop.parameters()):
            assert np.array_equal(p_fast.value, p_loop.value), p_fast.name
