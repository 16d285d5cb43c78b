"""Tests for the VAE and MADE proposal models."""

import itertools

import numpy as np
import pytest
import scipy.stats

from repro.lattice import one_hot
from repro.nn import (
    MADE,
    Adam,
    CategoricalVAE,
    MADEConfig,
    VAEConfig,
    categorical_cross_entropy_from_logits,
    gaussian_kl_divergence,
    mse_loss,
)


def all_one_hot(n_sites, n_species):
    xs = np.array(list(itertools.product(range(n_species), repeat=n_sites)), dtype=np.int8)
    return xs, np.stack([one_hot(x, n_species) for x in xs])


class TestLosses:
    def test_mse_value_and_grad(self):
        pred = np.array([[1.0, 2.0]])
        target = np.array([[0.0, 0.0]])
        loss, grad = mse_loss(pred, target)
        assert loss == pytest.approx(2.5)
        assert np.allclose(grad, [[1.0, 2.0]])

    def test_cross_entropy_uniform_logits(self):
        logits = np.zeros((2, 3, 4))
        targets = np.zeros_like(logits)
        targets[:, :, 0] = 1.0
        loss, grad = categorical_cross_entropy_from_logits(logits, targets)
        assert loss == pytest.approx(3 * np.log(4.0))
        assert grad.shape == logits.shape

    def test_cross_entropy_grad_finite_difference(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(2, 3))
        targets = np.zeros((2, 3))
        targets[0, 1] = targets[1, 2] = 1.0
        _, grad = categorical_cross_entropy_from_logits(logits, targets)
        eps = 1e-6
        for idx in np.ndindex(logits.shape):
            up = logits.copy(); up[idx] += eps
            dn = logits.copy(); dn[idx] -= eps
            lu, _ = categorical_cross_entropy_from_logits(up, targets)
            ld, _ = categorical_cross_entropy_from_logits(dn, targets)
            assert grad[idx] == pytest.approx((lu - ld) / (2 * eps), abs=1e-6)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            categorical_cross_entropy_from_logits(np.zeros((1, 2)), np.zeros((1, 3)))

    def test_kl_zero_at_standard_normal(self):
        mu = np.zeros((3, 4))
        logvar = np.zeros((3, 4))
        kl, gmu, glv = gaussian_kl_divergence(mu, logvar)
        assert kl == pytest.approx(0.0)
        assert np.allclose(gmu, 0.0) and np.allclose(glv, 0.0)

    def test_kl_grad_finite_difference(self):
        rng = np.random.default_rng(1)
        mu = rng.normal(size=(2, 3))
        logvar = rng.normal(size=(2, 3)) * 0.5
        _, gmu, glv = gaussian_kl_divergence(mu, logvar)
        eps = 1e-6
        for idx in np.ndindex(mu.shape):
            up = mu.copy(); up[idx] += eps
            dn = mu.copy(); dn[idx] -= eps
            assert gmu[idx] == pytest.approx(
                (gaussian_kl_divergence(up, logvar)[0] - gaussian_kl_divergence(dn, logvar)[0]) / (2 * eps),
                abs=1e-6,
            )
            up = logvar.copy(); up[idx] += eps
            dn = logvar.copy(); dn[idx] -= eps
            assert glv[idx] == pytest.approx(
                (gaussian_kl_divergence(mu, up)[0] - gaussian_kl_divergence(mu, dn)[0]) / (2 * eps),
                abs=1e-6,
            )


class TestVAEConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            VAEConfig(n_sites=0, n_species=2)
        with pytest.raises(ValueError):
            VAEConfig(n_sites=4, n_species=1)
        with pytest.raises(ValueError):
            VAEConfig(n_sites=4, n_species=2, latent_dim=0)
        with pytest.raises(ValueError):
            VAEConfig(n_sites=4, n_species=2, hidden=())
        with pytest.raises(ValueError):
            VAEConfig(n_sites=4, n_species=2, beta=-1.0)

    def test_input_dim(self):
        assert VAEConfig(n_sites=5, n_species=3).input_dim == 15


class TestVAE:
    @pytest.fixture
    def vae(self):
        return CategoricalVAE(
            VAEConfig(n_sites=8, n_species=3, latent_dim=3, hidden=(24,)), rng=0
        )

    def test_encode_shapes(self, vae):
        x = np.zeros((5, 8, 3))
        x[:, :, 0] = 1.0
        mu, logvar = vae.encode(x)
        assert mu.shape == (5, 3) and logvar.shape == (5, 3)

    def test_decode_shapes(self, vae):
        logits = vae.decode_logits(np.zeros((4, 3)))
        assert logits.shape == (4, 8, 3)

    def test_bad_input_shape_raises(self, vae):
        with pytest.raises(ValueError):
            vae.encode(np.zeros((5, 8, 4)))

    def test_sample_shapes_and_range(self, vae):
        rng = np.random.default_rng(0)
        configs, logp = vae.sample(10, rng, return_log_conditional=True)
        assert configs.shape == (10, 8)
        assert configs.min() >= 0 and configs.max() < 3
        assert np.all(logp <= 0.0 + 1e-12)

    def test_training_reduces_loss(self, vae):
        rng = np.random.default_rng(1)
        data = np.stack([one_hot(np.array([0, 1, 2, 0, 1, 2, 0, 1], dtype=np.int8), 3)] * 32)
        opt = Adam(vae.parameters(), lr=5e-3)
        first = vae.train_step(data, opt, rng)["loss"]
        for _ in range(150):
            last = vae.train_step(data, opt, rng)["loss"]
        assert last < first * 0.3

    def test_log_conditional_is_log_prob(self, vae):
        """Σ_x p(x|z) over all configurations must equal 1."""
        _, oh = all_one_hot(3, 2)
        small = CategoricalVAE(VAEConfig(n_sites=3, n_species=2, latent_dim=2, hidden=(8,)), rng=2)
        z = np.random.default_rng(0).normal(size=(1, 2))
        logps = [small.log_conditional(x[None], z)[0] for x in oh]
        assert np.exp(logps).sum() == pytest.approx(1.0, abs=1e-10)

    def test_log_marginal_normalized_small(self):
        """IWAE estimates of log q(x) over ALL x must sum to ~1 in prob."""
        small = CategoricalVAE(VAEConfig(n_sites=3, n_species=2, latent_dim=2, hidden=(8,)), rng=3)
        _, oh = all_one_hot(3, 2)
        rng = np.random.default_rng(4)
        lm = small.log_marginal(oh, n_samples=512, rng=rng, use_encoder=False)
        assert np.exp(lm).sum() == pytest.approx(1.0, abs=0.05)

    def test_log_marginal_encoder_vs_prior(self):
        """Encoder-IS and prior-IS estimates must agree on a trained model."""
        small = CategoricalVAE(VAEConfig(n_sites=4, n_species=2, latent_dim=2, hidden=(16,)), rng=5)
        rng = np.random.default_rng(6)
        data = np.stack([one_hot(np.array([0, 1, 0, 1], dtype=np.int8), 2)] * 16)
        opt = Adam(small.parameters(), lr=5e-3)
        for _ in range(200):
            small.train_step(data, opt, rng)
        x = data[:1]
        enc = small.log_marginal(x, n_samples=2048, rng=rng, use_encoder=True)[0]
        pri = small.log_marginal(x, n_samples=8192, rng=rng, use_encoder=False)[0]
        assert enc == pytest.approx(pri, abs=0.2)


class TestMADE:
    @pytest.fixture
    def made(self):
        return MADE(MADEConfig(n_sites=4, n_species=3, hidden=(32,)), rng=0)

    def test_exact_normalization(self, made):
        _, oh = all_one_hot(4, 3)
        total = np.exp(made.log_prob(oh)).sum()
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_normalization_survives_training(self, made):
        rng = np.random.default_rng(0)
        data = np.stack([one_hot(np.array([0, 1, 2, 0], dtype=np.int8), 3)] * 16)
        opt = Adam(made.parameters(), lr=1e-2)
        for _ in range(50):
            made.train_step(data, opt)
        _, oh = all_one_hot(4, 3)
        assert np.exp(made.log_prob(oh)).sum() == pytest.approx(1.0, abs=1e-9)

    def test_autoregressive_property(self, made):
        """logits at site i must not depend on sites j >= i."""
        rng = np.random.default_rng(1)
        base = one_hot(np.array([0, 1, 2, 0], dtype=np.int8), 3)
        l0 = made.logits(base[None])[0]
        for j in range(4):
            pert = base.copy()
            pert[j] = np.roll(pert[j], 1)
            l1 = made.logits(pert[None])[0]
            for i in range(j + 1):
                assert np.allclose(l0[i], l1[i]), f"site {i} depends on site {j}"

    def test_sample_log_prob_consistency(self, made):
        rng = np.random.default_rng(2)
        configs, logp = made.sample(1024, rng, return_log_prob=True)
        oh = np.stack([one_hot(c, 3) for c in configs])
        # sample() sums the picked entries of the log_softmax it samples from
        assert np.allclose(made.log_prob(oh), logp, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("hidden, cond_dim, compositions", [
        pytest.param((32,), 0, None, id="hidden0"),
        pytest.param((16, 12), 0, None, id="hidden1"),
        pytest.param((32,), 1, None, id="conditioned"),
        pytest.param((32,), 0, [(1, 1, 1), (0, 2, 1)], id="fixed"),
    ])
    def test_samples_follow_q_with_their_own_log_q(self, hidden, cond_dim, compositions):
        """Site-by-site decoding (an incremental first layer, only the
        drawn site's output columns) samples the distribution ``log_prob``
        scores, one or several hidden layers, on a non-uniform q; a
        conditioned model under each row's own condition (two values); a
        model masked to each row's own composition (two), whose samples
        all have it and whose masked q sums to 1 over them."""
        made = MADE(MADEConfig(n_sites=3, n_species=3, hidden=hidden, cond_dim=cond_dim),
                    rng=5)
        rng = np.random.default_rng(6)
        for p in made.parameters():
            p.value += 0.3 * rng.standard_normal(p.value.shape)
        n = 30_000
        conds = [None] if cond_dim == 0 else [np.array([-1.0]), np.array([2.0])]
        comps = [None] if compositions is None else [np.array(c) for c in compositions]
        parts = max(len(conds), len(comps))
        cond = None if cond_dim == 0 else np.repeat(np.stack(conds), n // 2, axis=0)
        counts = None if compositions is None else np.repeat(np.stack(comps), n // 2, axis=0)
        configs, logp = made.sample(n, np.random.default_rng(7), return_log_prob=True,
                                    cond=cond, counts=counts)
        assert np.allclose(made.log_prob(one_hot(configs, 3), cond, counts), logp,
                           rtol=0.0, atol=1e-12)
        states, oh = all_one_hot(3, 3)
        index = {tuple(state): k for k, state in enumerate(states)}
        for part, c, comp in zip(np.split(configs, parts), conds * parts, comps * parts):
            q = np.exp(made.log_prob(oh, c, comp))
            assert q.sum() == pytest.approx(1.0, abs=1e-12)
            on = q > 0
            expected = len(part) * q[on]
            counts = np.bincount([index[tuple(x)] for x in part], minlength=len(states))
            assert counts[~on].sum() == 0
            assert expected.min() > 5.0
            chi2 = float(((counts[on] - expected) ** 2 / expected).sum())
            assert chi2 < scipy.stats.chi2.ppf(1 - 1e-4, on.sum() - 1)

    def test_counts_are_validated(self, made):
        """Counts must be non-negative integers over every species that
        sum to the site count, one row or one per sample."""
        for bad in ([1, 1, 1], [2, 1, 0, 1], [5, -1, 0], [1.5, 1.5, 1], [[2, 1, 1]] * 3):
            with pytest.raises(ValueError, match="counts"):
                made.sample(2, 0, counts=bad)
        ok = made.sample(2, 0, counts=[[4, 0, 0], [0, 0, 4]])
        assert np.array_equal(ok, [[0] * 4, [2] * 4])

    def test_training_learns_peaked_distribution(self, made):
        rng = np.random.default_rng(3)
        target = np.array([2, 0, 1, 2], dtype=np.int8)
        data = np.stack([one_hot(target, 3)] * 32)
        opt = Adam(made.parameters(), lr=1e-2)
        for _ in range(300):
            made.train_step(data, opt)
        lp = made.log_prob(one_hot(target, 3)[None])[0]
        assert np.exp(lp) > 0.9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MADEConfig(n_sites=0, n_species=2)
        with pytest.raises(ValueError):
            MADEConfig(n_sites=4, n_species=2, hidden=())

    def test_single_site_model(self):
        """n_sites=1: the model is a learned marginal (pure bias)."""
        made = MADE(MADEConfig(n_sites=1, n_species=4, hidden=(8,)), rng=4)
        _, oh = all_one_hot(1, 4)
        assert np.exp(made.log_prob(oh)).sum() == pytest.approx(1.0, abs=1e-10)
