"""MADE: masked autoencoder for distribution estimation (Germain et al. 2015)
over multi-species lattice configurations.

Unlike the VAE, MADE gives *exact* likelihoods: the masked network factorizes
``q(x) = prod_i q(x_i | x_<i)`` so ``log q`` is a single forward pass, and
sampling is ``n_sites`` sequential forward passes.  In the proposal framework
this makes the Metropolis–Hastings correction exact (no importance-sampling
estimator), which is why MADE is the cross-check model for the VAE proposal
(experiment E5/E10 ablations).

An optional condition ``c`` (``MADEConfig.cond_dim > 0``) makes the model
``q(x | c)``: one network serves every temperature of a tempering ladder or
every energy window of a REWL campaign.  The condition inputs have
autoregressive degree 0, so every hidden unit may see them while the
site-to-site masks stay autoregressive and likelihoods stay exact per
condition value.  With ``cond_dim == 0`` (the default) the model is the
plain MADE and every method takes no condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.initializers import he_normal, zeros_init
from repro.nn.layers import Dense, ReLU, Sequential
from repro.nn.losses import categorical_cross_entropy_from_logits
from repro.nn.optim import clip_gradients
from repro.util.numerics import log_softmax
from repro.util.rng import as_generator

__all__ = ["MADEConfig", "MADE"]


@dataclass(frozen=True)
class MADEConfig:
    """Architecture hyperparameters for :class:`MADE`; ``cond_dim`` is the
    length of the condition vector (0: unconditioned)."""

    n_sites: int
    n_species: int
    hidden: tuple[int, ...] = (256,)
    cond_dim: int = 0

    def __post_init__(self):
        if self.n_sites < 1 or self.n_species < 2:
            raise ValueError(
                f"need n_sites >= 1 and n_species >= 2, got {self.n_sites}, {self.n_species}"
            )
        if not self.hidden:
            raise ValueError("at least one hidden layer is required")
        if self.cond_dim < 0:
            raise ValueError(f"cond_dim must be >= 0, got {self.cond_dim}")

    @property
    def x_dim(self) -> int:
        return self.n_sites * self.n_species

    @property
    def input_dim(self) -> int:
        return self.x_dim + self.cond_dim


def _build_masks(config: MADEConfig) -> list[np.ndarray]:
    """Autoregressive masks for input → hidden… → output.

    Degrees: input unit for site ``i`` has degree ``i + 1``; hidden units
    cycle through ``1 .. n_sites − 1`` (so every conditional gets hidden
    capacity); output units for site ``i`` have degree ``i + 1`` with the
    strict rule ``m_out > m_hidden``.  Site 0's output therefore connects to
    no site — its logits see only the condition (pure bias without one),
    i.e. ``q(x_0 | c)`` is learned as a marginal, exactly as MADE
    prescribes.  Condition inputs have degree 0: every hidden unit sees them.
    """
    n, s = config.n_sites, config.n_species
    in_deg = np.concatenate([
        np.repeat(np.arange(1, n + 1), s),
        np.zeros(config.cond_dim, dtype=np.int64),
    ])
    hidden_degs = []
    max_hidden_deg = max(n - 1, 1)
    for width in config.hidden:
        hidden_degs.append(1 + np.arange(width) % max_hidden_deg)
    out_deg = np.repeat(np.arange(1, n + 1), s)

    masks = []
    prev = in_deg
    for deg in hidden_degs:
        masks.append((deg[None, :] >= prev[:, None]).astype(np.float64))
        prev = deg
    masks.append((out_deg[None, :] > prev[:, None]).astype(np.float64))
    return masks


class MADE:
    """Masked autoregressive density estimator with exact ``log q``.

    Parameters
    ----------
    config : MADEConfig
    rng : seed or Generator

    With ``config.cond_dim > 0`` every method takes ``cond``, shape
    ``(B, cond_dim)`` or ``(cond_dim,)`` (broadcast over the batch).
    """

    def __init__(self, config: MADEConfig, rng=None):
        self.config = config
        rng = as_generator(rng)
        masks = _build_masks(config)
        dims = [config.input_dim] + list(config.hidden) + [config.x_dim]
        layers: list = []
        for k, mask in enumerate(masks):
            is_last = k == len(masks) - 1
            init = zeros_init if is_last else he_normal
            layers.append(
                Dense(dims[k], dims[k + 1], rng, init=init, mask=mask, name=f"made{k}")
            )
            if not is_last:
                layers.append(ReLU())
        self.net = Sequential(*layers)

    def parameters(self):
        return self.net.parameters()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def bind_workspace(self, workspace) -> None:
        """Preallocate layer intermediates in ``workspace``.

        Steady-state forwards (sampling, ``log_prob`` scoring, training)
        then reuse pooled buffers instead of allocating per call — see
        :mod:`repro.nn.workspace` for the borrowing contract.
        """
        self.net.bind_workspace(workspace)

    # -------------------------------------------------------------- forward

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

    def _check_cond(self, cond, batch: int):
        """``cond`` as ``(batch, cond_dim)`` float64; None stays None on an
        unconditioned model."""
        c = self.config
        if cond is None and c.cond_dim == 0:
            return None
        if cond is None:
            raise ValueError(f"this MADE is conditioned: pass cond of length {c.cond_dim}")
        cond = np.asarray(cond, dtype=np.float64)
        if cond.ndim == 1:
            cond = np.broadcast_to(cond, (batch, c.cond_dim))
        if cond.shape != (batch, c.cond_dim):
            raise ValueError(
                f"cond must have shape ({batch}, {c.cond_dim}), got {cond.shape}"
            )
        return cond

    def _forward(self, x: np.ndarray, cond) -> np.ndarray:
        flat = x.reshape(x.shape[0], -1)
        cond = self._check_cond(cond, x.shape[0])
        if cond is not None:
            flat = np.concatenate([flat, cond], axis=1)
        return self.net.forward(flat).reshape(x.shape)

    def logits(self, x_onehot: np.ndarray, cond=None) -> np.ndarray:
        """Conditional logits, shape (B, n_sites, n_species).

        ``logits[:, i]`` depends only on sites ``< i`` of the input (and on
        ``cond``) — the autoregressive property, numerically verified in
        the tests.
        """
        return self._forward(self._check_input(x_onehot), cond)

    def log_prob(self, x_onehot: np.ndarray, cond=None) -> np.ndarray:
        """Exact ``log q(x)`` (``log q(x | cond)``) per batch row."""
        x = self._check_input(x_onehot)
        logp = log_softmax(self._forward(x, cond), axis=-1)
        return (logp * x).sum(axis=(1, 2))

    # ------------------------------------------------------------- training

    def train_step(self, x_onehot: np.ndarray, optimizer, max_grad_norm: float = 10.0,
                   cond=None) -> dict:
        """One maximum-likelihood gradient step; returns metrics dict."""
        x = self._check_input(x_onehot)
        self.zero_grad()
        logits = self._forward(x, cond)
        loss, dlogits = categorical_cross_entropy_from_logits(logits, x)
        self.net.backward(dlogits.reshape(x.shape[0], -1))
        grad_norm = clip_gradients(self.parameters(), max_grad_norm)
        optimizer.step()
        return {"loss": loss, "grad_norm": grad_norm}

    # ------------------------------------------------------------- sampling

    def sample(self, n: int, rng, return_log_prob: bool = False, cond=None):
        """Draw ``n`` exact samples (of ``q(x | cond)``) by sequential
        site-by-site decoding.

        Site ``i``'s logits need only the sites drawn before it, so a site
        costs far less than a full forward: the first layer's input is
        one-hot, so its pre-activation starts from the bias plus the
        condition's weight rows and grows by one weight row per drawn site;
        deeper hidden layers run in full; the output layer computes
        only site ``i``'s ``n_species`` columns.  Each site still costs a
        fixed NumPy overhead that barely depends on ``n``, so callers should
        ask for many rows at once (:class:`~repro.proposals.dl_made.
        MADEProposal` draws a pool).  The sampling probabilities are ``exp``
        of the ``log_softmax`` whose picked entries sum to the returned
        ``log q``, which equals :meth:`log_prob` of the returned rows to
        roundoff (the sums run in another order).
        """
        rng = as_generator(rng)
        c = self.config
        s = c.n_species
        first, *middle, last = self.net.layers[::2]  # Dense, ReLU, ..., Dense
        w_first, w_last = first.effective_weight(), last.effective_weight()
        # (n, width) buffers made once: fresh ones per site cost page faults
        pre = np.tile(first.bias.value, (n, 1))  # first layer's pre-activation
        cond = self._check_cond(cond, n)
        if cond is not None:
            pre += cond @ w_first[c.x_dim:]
        h0, drawn = np.empty_like(pre), np.empty_like(pre)
        configs = np.zeros((n, c.n_sites), dtype=np.int8)
        total_logp = np.zeros(n, dtype=np.float64)
        rows = np.arange(n)
        for i in range(c.n_sites):
            h = np.maximum(pre, 0.0, out=h0)
            for layer in middle:
                h = np.maximum(h @ layer.effective_weight() + layer.bias.value, 0.0)
            cols = slice(i * s, (i + 1) * s)
            logp = log_softmax(h @ w_last[:, cols] + last.bias.value[cols], axis=-1)
            cdf = np.cumsum(np.exp(logp), axis=-1)
            u = rng.random((n, 1))
            picks = (u > cdf).sum(axis=-1)
            np.clip(picks, 0, s - 1, out=picks)
            configs[:, i] = picks
            pre += np.take(w_first, i * s + picks, axis=0, out=drawn)
            total_logp += logp[rows, picks]
        if return_log_prob:
            return configs, total_logp
        return configs
