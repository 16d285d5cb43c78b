"""Categorical variational autoencoder over lattice configurations.

This is the paper's headline proposal model: a VAE trained online on the
configurations visited by the Monte Carlo walkers.  Proposing a move means
drawing a latent ``z ~ N(0, I)`` and decoding a whole configuration — a
*global* update that decorrelates in O(1) steps where local swaps need O(N)
sweeps.

For the exact Metropolis–Hastings correction the sampler needs the proposal
density ``q(x) = E_{z~N(0,I)} p_dec(x | z)``, which is intractable; we
estimate ``log q(x)`` with the importance-weighted (IWAE) estimator using the
trained encoder as the importance distribution (``log_marginal``).  The MADE
model (:mod:`repro.nn.models.made`) provides *exact* densities and serves as
the cross-check for this estimator (experiment E5 ablation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.initializers import glorot_uniform
from repro.nn.layers import Dense, Sequential, Tanh
from repro.nn.losses import categorical_cross_entropy_from_logits, gaussian_kl_divergence
from repro.util.numerics import categorical_inverse_cdf, log_softmax, logsumexp, softmax
from repro.util.rng import as_generator

__all__ = ["VAEConfig", "CategoricalVAE"]

_LOGVAR_CLAMP = 15.0  # |logvar| clamp: keeps exp() finite on wild inputs


@dataclass(frozen=True)
class VAEConfig:
    """Architecture hyperparameters for :class:`CategoricalVAE`.

    Defaults follow the paper's regime: a small latent space relative to the
    configuration dimension and two hidden layers.
    """

    n_sites: int
    n_species: int
    latent_dim: int = 16
    hidden: tuple[int, ...] = (128, 64)
    beta: float = 1.0  # KL weight (beta-VAE generalization; 1 = standard ELBO)

    def __post_init__(self):
        if self.n_sites < 1 or self.n_species < 2:
            raise ValueError(
                f"need n_sites >= 1 and n_species >= 2, got {self.n_sites}, {self.n_species}"
            )
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if not self.hidden:
            raise ValueError("at least one hidden layer is required")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")

    @property
    def input_dim(self) -> int:
        return self.n_sites * self.n_species


class CategoricalVAE:
    """VAE with a factorized categorical decoder over lattice sites.

    Parameters
    ----------
    config : VAEConfig
    rng : seed or Generator
        Weight initialization stream.
    """

    def __init__(self, config: VAEConfig, rng=None):
        self.config = config
        rng = as_generator(rng)
        d_in = config.input_dim
        enc_layers: list = []
        prev = d_in
        for k, h in enumerate(config.hidden):
            enc_layers += [Dense(prev, h, rng, name=f"enc{k}"), Tanh()]
            prev = h
        self.encoder = Sequential(*enc_layers)
        self.enc_head = Dense(prev, 2 * config.latent_dim, rng, name="enc_head")

        dec_layers: list = []
        prev = config.latent_dim
        for k, h in enumerate(reversed(config.hidden)):
            dec_layers += [Dense(prev, h, rng, name=f"dec{k}"), Tanh()]
            prev = h
        dec_layers.append(Dense(prev, d_in, rng, init=glorot_uniform, name="dec_out"))
        self.decoder = Sequential(*dec_layers)

    # ------------------------------------------------------------ parameters

    def parameters(self):
        return (
            self.encoder.parameters()
            + self.enc_head.parameters()
            + self.decoder.parameters()
        )

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def bind_workspace(self, workspace) -> None:
        """Preallocate encoder/decoder intermediates in ``workspace``
        (see :mod:`repro.nn.workspace`)."""
        self.encoder.bind_workspace(workspace)
        self.enc_head.bind_workspace(workspace)
        self.decoder.bind_workspace(workspace)

    # ------------------------------------------------------------- encoding

    def _check_input(self, x_onehot: np.ndarray) -> np.ndarray:
        x = np.asarray(x_onehot, dtype=np.float64)
        c = self.config
        if x.ndim == 2 and x.shape == (c.n_sites, c.n_species):
            x = x[None]
        if x.ndim != 3 or x.shape[1:] != (c.n_sites, c.n_species):
            raise ValueError(
                f"expected one-hot input of shape (B, {c.n_sites}, {c.n_species}), "
                f"got {np.asarray(x_onehot).shape}"
            )
        return x

    def encode(self, x_onehot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior parameters ``(mu, logvar)``, each (B, latent_dim)."""
        x = self._check_input(x_onehot)
        h = self.encoder.forward(x.reshape(x.shape[0], -1))
        stats = self.enc_head.forward(h)
        L = self.config.latent_dim
        mu = stats[:, :L]
        logvar = np.clip(stats[:, L:], -_LOGVAR_CLAMP, _LOGVAR_CLAMP)
        return mu, logvar

    def decode_logits(self, z: np.ndarray) -> np.ndarray:
        """Decoder logits, shape (B, n_sites, n_species)."""
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        out = self.decoder.forward(z)
        return out.reshape(z.shape[0], self.config.n_sites, self.config.n_species)

    # -------------------------------------------------------------- training

    def train_step(self, x_onehot: np.ndarray, optimizer, rng, max_grad_norm: float = 10.0) -> dict:
        """One gradient step on the (beta-)ELBO for a batch.

        Returns a metrics dict: ``loss``, ``recon``, ``kl``, ``grad_norm``.
        """
        x = self._check_input(x_onehot)
        rng = as_generator(rng)
        batch = x.shape[0]
        L = self.config.latent_dim

        self.zero_grad()
        flat = x.reshape(batch, -1)
        h = self.encoder.forward(flat)
        stats = self.enc_head.forward(h)
        mu = stats[:, :L]
        raw_logvar = stats[:, L:]
        clipped = np.clip(raw_logvar, -_LOGVAR_CLAMP, _LOGVAR_CLAMP)
        eps = rng.standard_normal(mu.shape)
        std = np.exp(0.5 * clipped)
        z = mu + std * eps
        logits = self.decoder.forward(z).reshape(x.shape)

        recon, dlogits = categorical_cross_entropy_from_logits(logits, x)
        kl, dmu_kl, dlogvar_kl = gaussian_kl_divergence(mu, clipped)
        loss = recon + self.config.beta * kl

        dz = self.decoder.backward(dlogits.reshape(batch, -1))
        dmu = dz + self.config.beta * dmu_kl
        dlogvar = dz * eps * 0.5 * std + self.config.beta * dlogvar_kl
        # Clamp is identity inside the interval, zero-gradient outside.
        dlogvar = np.where(np.abs(raw_logvar) < _LOGVAR_CLAMP, dlogvar, 0.0)
        dstats = np.concatenate([dmu, dlogvar], axis=1)
        dh = self.enc_head.backward(dstats)
        self.encoder.backward(dh)

        grad_norm = optimizer.clip_gradients(max_grad_norm)
        optimizer.step()
        return {"loss": loss, "recon": recon, "kl": kl, "grad_norm": grad_norm}

    # -------------------------------------------------------------- sampling

    def sample(self, n: int, rng, return_log_conditional: bool = False,
               logit_temperature: float = 1.0, return_latent: bool = False):
        """Draw ``n`` configurations: z ~ N(0, I), x ~ p(x|z) sitewise.

        ``logit_temperature > 1`` broadens the decoder categorical
        distributions (logits are divided by it) — the standard control
        against over-sharpened independence proposals.  All density methods
        take the same parameter; using one consistent value keeps the
        proposal kernel exactly defined.

        Returns
        -------
        configs : (n, n_sites) int8
        log_cond : (n,) float, optional
            ``log p(x|z)`` of each draw under its own latent (NOT the
            marginal; use :meth:`log_marginal` for MH corrections).
        z : (n, latent_dim) float, optional
            The latent each draw was decoded from (``return_latent``).
        """
        if logit_temperature <= 0:
            raise ValueError(f"logit_temperature must be > 0, got {logit_temperature}")
        rng = as_generator(rng)
        c = self.config
        z = rng.standard_normal((n, c.latent_dim))
        logits = self.decode_logits(z) / logit_temperature
        u = rng.random((n, c.n_sites))
        configs = categorical_inverse_cdf(softmax(logits, axis=-1), u).astype(np.int8)
        np.clip(configs, 0, c.n_species - 1, out=configs)
        out = (configs,)
        if return_log_conditional:
            logp = log_softmax(logits, axis=-1)
            picked = np.take_along_axis(logp, configs[..., None].astype(np.int64), axis=-1)
            out += (picked[..., 0].sum(axis=1),)
        if return_latent:
            out += (z,)
        return out if len(out) > 1 else configs

    def log_conditional(self, x_onehot: np.ndarray, z: np.ndarray,
                        logit_temperature: float = 1.0) -> np.ndarray:
        """``log p(x | z)`` for batches of x and z (paired rows)."""
        if logit_temperature <= 0:
            raise ValueError(f"logit_temperature must be > 0, got {logit_temperature}")
        x = self._check_input(x_onehot)
        logits = self.decode_logits(z) / logit_temperature
        if logits.shape[0] != x.shape[0]:
            raise ValueError(
                f"batch mismatch: {x.shape[0]} configurations vs {logits.shape[0]} latents"
            )
        logp = log_softmax(logits, axis=-1)
        return (logp * x).sum(axis=(1, 2))

    def log_marginal(self, x_onehot: np.ndarray, n_samples: int = 32, rng=None,
                     use_encoder: bool = True, logit_temperature: float = 1.0,
                     latent: np.ndarray | None = None) -> np.ndarray:
        """IWAE estimate of ``log q(x) = log E_{z~N(0,I)} p(x|z)``.

        With ``use_encoder=True`` (default) the estimator importance-samples
        from the trained posterior: ``log (1/S) Σ p(x|z_s) p(z_s)/r(z_s|x)``,
        z_s ~ r(z|x) — low variance once the encoder fits.  With ``False`` it
        samples the prior directly (unbiased in the same sense but higher
        variance; used in tests to bound the encoder estimator).

        ``latent`` (``(B, latent_dim)``) gives the latent each row of ``x``
        was decoded from: term 0 then uses it and only ``n_samples − 1``
        terms are drawn — the estimate a VAE proposal's candidate carries
        (DESIGN.md §12).  Row ``b``'s noise is drawn as one ``(S, L)``
        block, rows in order, so an estimate does not depend on which other
        rows share the call.
        """
        x = self._check_input(x_onehot)
        rng = as_generator(rng)
        B, L = x.shape[0], self.config.latent_dim
        drawn = n_samples if latent is None else n_samples - 1
        eps = rng.standard_normal((B, drawn, L))
        if use_encoder:
            mu, logvar = self.encode(x)
        else:
            mu, logvar = np.zeros((B, L)), np.zeros((B, L))
        std = np.exp(0.5 * logvar)
        z = mu[:, None] + std[:, None] * eps
        if latent is not None:
            first = np.asarray(latent, dtype=np.float64)[:, None]
            eps = np.concatenate([(first - mu[:, None]) / std[:, None], eps], axis=1)
            z = np.concatenate([first, z], axis=1)
        # log p(z) − log r(z|x) per term: 0 for the prior
        log_ratio = 0.5 * (np.sum(eps**2 - z**2, axis=2) + logvar.sum(axis=1)[:, None])
        logits = self.decode_logits(z.reshape(-1, L)) / logit_temperature
        logp = log_softmax(logits, axis=-1).reshape(B, n_samples, *x.shape[1:])
        terms = (logp * x[:, None]).sum(axis=(2, 3)) + log_ratio
        return logsumexp(terms, axis=1) - np.log(n_samples)
