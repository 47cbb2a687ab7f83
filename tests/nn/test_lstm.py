"""Tests for repro.nn.lstm: cell math, BPTT gradients, sequence learning."""

import numpy as np
import pytest

import repro.nn.lstm as lstm_module
from repro.nn.lstm import LSTMCell, LSTMNetwork
from repro.nn.optim import Adam
from tests.helpers import (
    LoopAdam,
    assert_same_adam,
    lstm_backward_loop,
    lstm_forward_loop,
    numerical_gradient,
    record_optimizers,
)


class TestCell:
    def test_initial_state_zero(self, rng):
        cell = LSTMCell(2, 4, rng=rng)
        h, c = cell.initial_state(3)
        assert h.shape == (3, 4) and c.shape == (3, 4)
        assert np.all(h == 0) and np.all(c == 0)

    def test_step_shapes(self, rng):
        cell = LSTMCell(2, 4, rng=rng)
        h, c = cell.initial_state(3)
        h2, c2, cache = cell.step(rng.normal(size=(3, 2)), h, c)
        assert h2.shape == (3, 4) and c2.shape == (3, 4)
        assert cache["i"].shape == (3, 4)

    def test_hidden_bounded_by_one(self, rng):
        # h = o * tanh(c) with o in (0,1) and tanh in (-1,1).
        cell = LSTMCell(1, 3, rng=rng)
        h, c = cell.initial_state(1)
        for _ in range(50):
            h, c, _ = cell.step(np.array([[10.0]]), h, c)
        assert np.all(np.abs(h) < 1.0)

    def test_forget_bias_applied(self, rng):
        cell = LSTMCell(1, 2, rng=rng, forget_bias=1.5)
        hd = cell.hidden_dim
        assert np.all(cell.bias.value[hd : 2 * hd] == 1.5)
        assert np.all(cell.bias.value[:hd] == 0.0)

    def test_wrong_input_width_raises(self, rng):
        cell = LSTMCell(2, 3, rng=rng)
        h, c = cell.initial_state(1)
        with pytest.raises(ValueError):
            cell.step(np.ones((1, 5)), h, c)

    def test_invalid_dims(self, rng):
        with pytest.raises(ValueError):
            LSTMCell(0, 3, rng=rng)

    def test_single_step_gradcheck(self, rng):
        cell = LSTMCell(2, 3, rng=rng)
        x = rng.normal(size=(2, 2))
        h0, c0 = cell.initial_state(2)

        def loss():
            h, c, _ = cell.step(x, h0, c0)
            return float(np.sum(h) + 0.5 * np.sum(c))

        h, c, cache = cell.step(x, h0, c0)
        cell.zero_grad()
        dx, dh_prev, dc_prev = cell.step_backward(
            np.ones_like(h), 0.5 * np.ones_like(c), cache
        )
        for param in cell.parameters():
            numeric = numerical_gradient(loss, param.value)
            assert np.allclose(param.grad, numeric, atol=1e-5), param.name
        assert np.allclose(dx, numerical_gradient(loss, x), atol=1e-5)


class TestNetwork:
    def test_forward_shapes(self, rng):
        net = LSTMNetwork(input_dim=1, hidden_dim=5, output_dim=1, rng=rng)
        y, caches = net.forward(rng.normal(size=(4, 10, 1)))
        assert y.shape == (4, 1)
        assert caches["steps"] == 10

    def test_2d_input_promoted(self, rng):
        net = LSTMNetwork(input_dim=1, hidden_dim=5, rng=rng)
        y = net.predict(rng.normal(size=(4, 10)))
        assert y.shape == (4, 1)

    def test_wrong_feature_width_raises(self, rng):
        net = LSTMNetwork(input_dim=1, hidden_dim=5, rng=rng)
        with pytest.raises(ValueError):
            net.forward(rng.normal(size=(4, 10, 3)))

    def test_empty_sequence_raises(self, rng):
        net = LSTMNetwork(rng=rng)
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 0, 1)))

    def test_paper_init(self, rng):
        net = LSTMNetwork(hidden_dim=30, init="paper", rng=rng)
        assert np.all(net.input_layer.bias.value == 0.1)
        assert np.all(net.output_layer.bias.value == 0.1)

    def test_invalid_init_name(self, rng):
        with pytest.raises(ValueError):
            LSTMNetwork(init="kaiming", rng=rng)

    def test_bptt_gradcheck(self, rng):
        net = LSTMNetwork(
            input_dim=1, hidden_dim=3, output_dim=1, cell_input_dim=2, rng=rng
        )
        x = rng.normal(size=(2, 4, 1))
        target = rng.normal(size=(2, 1))

        def loss():
            return 0.5 * float(np.sum((net.predict(x) - target) ** 2))

        y, caches = net.forward(x)
        net.zero_grad()
        net.backward(y - target, caches)
        for param in net.parameters():
            numeric = numerical_gradient(loss, param.value)
            assert np.allclose(param.grad, numeric, atol=1e-4), param.name

    def test_cell_weights_shared_across_time(self, rng):
        # One cell object serves every step: parameter count is independent
        # of sequence length (the paper's "all LSTM cells have shared
        # weights").
        net = LSTMNetwork(input_dim=1, hidden_dim=4, rng=rng)
        n_before = net.num_parameters()
        net.predict(rng.normal(size=(1, 50, 1)))
        assert net.num_parameters() == n_before


class TestOnePassEquivalence:
    """One-pass gates and the hoisted input layer against the per-step
    reference in tests/helpers.py, bit for bit."""

    @pytest.mark.parametrize(
        "input_dim,batch,flat",
        [(1, 1, False), (1, 5, False), (1, 4, True), (3, 4, False)],
    )
    def test_outputs_and_every_gradient(self, rng, input_dim, batch, flat):
        net = LSTMNetwork(input_dim=input_dim, hidden_dim=6, cell_input_dim=5, rng=rng)
        x = rng.normal(size=(batch, 35) if flat else (batch, 35, input_dim))
        dy = rng.normal(size=(batch, 1))
        y, caches = net.forward(x)
        net.zero_grad()
        net.backward(dy, caches)
        grads = [p.grad.copy() for p in net.parameters()]
        y_ref, ref_caches = lstm_forward_loop(net, x)
        net.zero_grad()
        lstm_backward_loop(net, dy, ref_caches)
        assert np.array_equal(y, y_ref)
        for p, grad in zip(net.parameters(), grads):
            assert np.array_equal(grad, p.grad), p.name

    @pytest.mark.parametrize("init", ["xavier", "paper"])
    def test_fit_matches_the_per_array_per_step_oracle(self, monkeypatch, init):
        data = np.random.default_rng(5)
        x = data.uniform(size=(120, 35, 1))
        y = data.uniform(size=(120, 1))
        runs = {}
        for name, cls in (("packed", Adam), ("oracle", LoopAdam)):
            with monkeypatch.context() as mp:
                made = record_optimizers(mp, lstm_module, cls)
                if cls is LoopAdam:
                    mp.setattr(LSTMNetwork, "forward", lstm_forward_loop)
                    mp.setattr(LSTMNetwork, "backward", lstm_backward_loop)
                net = LSTMNetwork(
                    hidden_dim=30, init=init, rng=np.random.default_rng(6)
                )
                history = net.fit(
                    x, y, epochs=7, batch_size=16, rng=np.random.default_rng(7)
                )
                runs[name] = (made[0], history, net.predict(x[:4]))
        (packed, history, pred), (oracle, oracle_history, oracle_pred) = runs.values()
        assert packed._t == 7 * 8
        assert all(np.shares_memory(p.value, packed.values) for p in packed.parameters)
        assert_same_adam(packed, oracle)
        assert history == oracle_history
        assert np.array_equal(pred, oracle_pred)


class TestLearning:
    def test_fits_deterministic_next_value(self, rng):
        # Next value of a noiseless sine is learnable from a short window.
        t = np.arange(500) * 0.3
        series = 0.5 + 0.4 * np.sin(t)
        look = 8
        windows = [series[i : i + look] for i in range(len(series) - look)]
        x = np.stack(windows)[:, :, None]
        y = series[look:][:, None]
        net = LSTMNetwork(input_dim=1, hidden_dim=8, rng=rng)
        history = net.fit(x, y, epochs=15, lr=5e-3, rng=rng)
        assert history[-1] < 0.25 * history[0]

    def test_fit_mismatched_rows_raise(self, rng):
        net = LSTMNetwork(rng=rng)
        with pytest.raises(ValueError):
            net.fit(np.zeros((3, 4, 1)), np.zeros((2, 1)))

    def test_outperforms_last_value_on_alternating_series(self, rng):
        # An alternating series is the worst case for naive last-value
        # prediction and trivial for a memory cell.
        series = np.tile([0.2, 0.8], 300).astype(float)
        look = 6
        windows = [series[i : i + look] for i in range(len(series) - look)]
        x = np.stack(windows)[:, :, None]
        y = series[look:][:, None]
        net = LSTMNetwork(input_dim=1, hidden_dim=6, rng=rng)
        net.fit(x, y, epochs=20, lr=1e-2, rng=rng)
        pred = net.predict(x)
        lstm_mse = float(np.mean((pred - y) ** 2))
        naive_mse = float(np.mean((x[:, -1, 0:1] - y) ** 2))
        assert lstm_mse < 0.2 * naive_mse
