"""Loss functions returning ``(value, grad_wrt_input)``.

Each loss returns the scalar loss (mean over the batch) and the gradient
with respect to its first argument, ready to feed into a model's backward
pass.  Keeping value and gradient in one function avoids cache mismatch bugs
between separate ``loss()`` / ``loss_grad()`` calls.
"""

from __future__ import annotations

import numpy as np

from repro.util.numerics import log_softmax_and_softmax

__all__ = [
    "mse_loss",
    "categorical_cross_entropy_from_logits",
    "gaussian_kl_divergence",
]


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all elements; grad w.r.t. ``pred``."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    diff = pred - target
    loss = float(np.mean(diff**2))
    grad = 2.0 * diff / diff.size
    return loss, grad


def categorical_cross_entropy_from_logits(
    logits: np.ndarray, one_hot_targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy, summed over sites, averaged over the batch.

    Parameters
    ----------
    logits : (B, ..., S)
        Unnormalized class scores; softmax is over the last axis.
    one_hot_targets : same shape
        One-hot targets.

    Returns
    -------
    (loss, grad)
        ``loss`` is mean-over-batch of the summed negative log-likelihood;
        ``grad`` is d(loss)/d(logits) = (softmax − target)/B.
    """
    logits = np.asarray(logits, dtype=np.float64)
    t = np.asarray(one_hot_targets, dtype=np.float64)
    if logits.shape != t.shape:
        raise ValueError(f"shape mismatch: logits {logits.shape} vs targets {t.shape}")
    batch = logits.shape[0]
    logp, grad = log_softmax_and_softmax(logits, axis=-1)
    logp *= t
    loss = float(-logp.sum() / batch)
    grad -= t
    grad /= batch
    return loss, grad


def gaussian_kl_divergence(mu: np.ndarray, logvar: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """KL(N(mu, exp(logvar)) || N(0, I)), summed over dims, batch-averaged.

    Returns
    -------
    (kl, grad_mu, grad_logvar)
        The VAE regularizer and its gradients:
        KL = −½ Σ (1 + logvar − mu² − e^logvar);
        dKL/dmu = mu/B, dKL/dlogvar = ½(e^logvar − 1)/B.
    """
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    batch = mu.shape[0]
    var = np.exp(logvar)
    kl = float(-0.5 * np.sum(1.0 + logvar - mu**2 - var) / batch)
    grad_mu = mu / batch
    grad_logvar = 0.5 * (var - 1.0) / batch
    return kl, grad_mu, grad_logvar
