"""Tests for repro.nn.autoencoder."""

import numpy as np
import pytest

import repro.nn.autoencoder as autoencoder_module
from repro.nn.autoencoder import Autoencoder
from repro.nn.losses import MSELoss
from repro.nn.optim import Adam
from tests.helpers import LoopAdam, assert_same_adam, record_optimizers


class TestConstruction:
    def test_paper_geometry(self, rng):
        ae = Autoencoder(12, hidden_sizes=(30, 15), rng=rng)
        assert ae.input_dim == 12
        assert ae.code_dim == 15
        # encoder: 12 -> 30 -> 15, decoder mirrors.
        assert [layer.out_features for layer in ae.encoder.layers] == [30, 15]
        assert [layer.out_features for layer in ae.decoder.layers] == [30, 12]

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            Autoencoder(0, rng=rng)
        with pytest.raises(ValueError):
            Autoencoder(4, hidden_sizes=(), rng=rng)


class TestEncodeDecode:
    def test_encode_shape(self, rng):
        ae = Autoencoder(8, hidden_sizes=(6, 3), rng=rng)
        codes = ae.encode(rng.normal(size=(5, 8)))
        assert codes.shape == (5, 3)

    def test_reconstruct_shape(self, rng):
        ae = Autoencoder(8, hidden_sizes=(6, 3), rng=rng)
        recon = ae.decoder.predict(ae.encode(rng.normal(size=(5, 8))))
        assert recon.shape == (5, 8)

    def test_encode_with_cache_matches_encode(self, rng):
        ae = Autoencoder(8, hidden_sizes=(6, 3), rng=rng)
        x = rng.normal(size=(4, 8))
        code, caches = ae.encode_with_cache(x)
        assert np.allclose(code, ae.encode(x))
        assert len(caches) == len(ae.encoder.layers)


class TestTraining:
    def test_fit_reduces_reconstruction_loss(self, rng):
        # Low-rank data: 8-dim observations from a 3-dim latent space.
        latent = rng.normal(size=(300, 3))
        mix = rng.normal(size=(3, 8))
        x = latent @ mix
        ae = Autoencoder(8, hidden_sizes=(16, 3), rng=rng)
        def reconstruction_loss():
            return MSELoss().forward(ae.decoder.predict(ae.encode(x)), x)

        before = reconstruction_loss()
        ae.fit(x, epochs=60, lr=3e-3, rng=rng)
        after = reconstruction_loss()
        assert after < 0.3 * before

    def test_fit_returns_history(self, rng):
        ae = Autoencoder(4, hidden_sizes=(3, 2), rng=rng)
        history = ae.fit(rng.normal(size=(32, 4)), epochs=5, rng=rng)
        assert len(history) == 5
        assert all(np.isfinite(h) for h in history)

    def test_fit_matches_per_array_adam(self, monkeypatch):
        x = np.random.default_rng(3).uniform(size=(400, 6))
        runs = {}
        for name, cls in (("packed", Adam), ("oracle", LoopAdam)):
            with monkeypatch.context() as mp:
                made = record_optimizers(mp, autoencoder_module, cls)
                ae = Autoencoder(6, hidden_sizes=(5, 3), rng=np.random.default_rng(1))
                history = ae.fit(x, epochs=8, rng=np.random.default_rng(2))
            runs[name] = (made[0], history)
        (packed, packed_history), (oracle, oracle_history) = runs.values()
        assert packed._t == 8 * 7
        assert_same_adam(packed, oracle)
        assert packed_history == oracle_history

    def test_encoder_backward_accumulates_grads(self, rng):
        ae = Autoencoder(6, hidden_sizes=(4, 2), rng=rng)
        x = rng.normal(size=(3, 6))
        code, caches = ae.encode_with_cache(x)
        ae.zero_grad()
        ae.encoder_backward(np.ones_like(code), caches)
        grads = [np.abs(p.grad).sum() for p in ae.encoder.parameters()]
        assert all(g > 0 for g in grads)


class TestSharing:
    def test_share_with(self, rng):
        a = Autoencoder(6, hidden_sizes=(4, 2), rng=rng)
        b = Autoencoder(6, hidden_sizes=(4, 2), rng=rng)
        b.share_with(a)
        x = rng.normal(size=(2, 6))
        assert np.allclose(a.encode(x), b.encode(x))
        a.encoder.layers[0].weight.value += 1.0
        assert np.allclose(a.encode(x), b.encode(x))
