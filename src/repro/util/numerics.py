"""Numerically stable log-domain primitives.

Density-of-states work lives entirely in the log domain: the DeepThermo paper
evaluates densities of states spanning ~e^10,000, which overflow any floating
point representation if exponentiated.  Every thermodynamic quantity in
:mod:`repro.dos` is therefore computed from ``ln g(E)`` with the helpers in
this module, which never exponentiate un-shifted arguments.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "logsumexp",
    "logmeanexp",
    "log_add_exp",
    "log_sub_exp",
    "log1pexp",
    "softmax",
    "log_softmax",
    "log_softmax_and_softmax",
    "categorical_inverse_cdf",
    "stable_sigmoid",
    "weighted_logsumexp",
]


def logsumexp(a, axis=None, keepdims=False):
    """Compute ``log(sum(exp(a)))`` without overflow.

    Parameters
    ----------
    a : array_like
        Log-domain values.  ``-inf`` entries are handled correctly (they
        contribute zero weight); an all ``-inf`` reduction returns ``-inf``.
    axis : int or None
        Axis to reduce over; ``None`` reduces over the whole array.
    keepdims : bool
        Keep the reduced axis as size 1.

    Returns
    -------
    numpy.ndarray or float
        The log-domain sum.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        raise ValueError("logsumexp of an empty array is undefined")
    amax = np.max(a, axis=axis, keepdims=True)
    # An all -inf slice must not produce nan via (-inf) - (-inf).
    amax_safe = np.where(np.isfinite(amax), amax, 0.0)
    with np.errstate(over="raise"):
        shifted = np.exp(a - amax_safe)
    total = np.sum(shifted, axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        out = np.log(total) + amax_safe
    out = np.where(np.isfinite(amax), out, amax)
    if not keepdims:
        out = np.squeeze(out, axis=axis) if axis is not None else out.reshape(())
    if out.ndim == 0:
        return float(out)
    return out


def weighted_logsumexp(a, log_w, axis=None):
    """Compute ``log(sum(exp(a + log_w)))``, i.e. a weighted log-sum-exp.

    Useful for canonical averages ``<O> = sum O(E) g(E) e^{-beta E} / Z`` with
    observables folded into the weight term.
    """
    a = np.asarray(a, dtype=np.float64)
    log_w = np.asarray(log_w, dtype=np.float64)
    return logsumexp(a + log_w, axis=axis)


def logmeanexp(a, axis=None):
    """Compute ``log(mean(exp(a)))`` — the log-domain arithmetic mean.

    This is the estimator used for VAE proposal densities:
    ``log q(x) ≈ log (1/S) sum_s p(x|z_s)`` over S latent samples.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.size if axis is None else a.shape[axis]
    return logsumexp(a, axis=axis) - np.log(n)


def log_add_exp(a, b):
    """Elementwise ``log(exp(a) + exp(b))`` (stable)."""
    return np.logaddexp(a, b)


def log_sub_exp(a, b):
    """Elementwise ``log(exp(a) - exp(b))`` for ``a >= b`` (stable).

    Raises
    ------
    ValueError
        If any ``a < b`` (the result would be the log of a negative number).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(a < b):
        raise ValueError("log_sub_exp requires a >= b elementwise")
    diff = b - a
    # -expm1(diff) in [0, 1); log1p of its negative is stable.
    with np.errstate(divide="ignore"):
        out = a + np.log1p(-np.exp(diff))
    # a == b -> log(0) = -inf, which is correct.
    return out


def log1pexp(x):
    """Compute ``log(1 + exp(x))`` (softplus) without overflow."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x > 0
    out[pos] = x[pos] + np.log1p(np.exp(-x[pos]))
    out[~pos] = np.log1p(np.exp(x[~pos]))
    if out.ndim == 0:
        return float(out)
    return out


def _fold_species(op, x, axis):
    """Fold the binary ufunc ``op`` over ``axis``, one slice at a time,
    keeping ``axis`` with length 1.

    A handful of elementwise calls over ``x[..., k, ...]`` instead of one
    axis reduction: NumPy's reduction machinery costs tens of microseconds
    per call over a short axis, the slices a few each.
    """
    head = (slice(None),) * (axis % x.ndim)
    out = x[head + (slice(0, 1),)].copy()
    for k in range(1, x.shape[axis]):
        op(out, x[head + (slice(k, k + 1),)], out=out)
    return out


def _shifted_exp(x, axis):
    """``x - max``, its ``exp`` and the ``exp`` sums along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - _fold_species(np.maximum, x, axis)
    e = np.exp(shifted)
    return shifted, e, _fold_species(np.add, e, axis)


def log_softmax_and_softmax(x, axis=-1):
    """``(log_softmax(x), softmax(x))`` along ``axis`` from one ``exp`` pass.

    The softmax family reduces the (short) species axis slice by slice:
    maxima with ``np.maximum``, sums left to right with ``+=``.  For an axis
    of length 2–7 that is bit for bit what ``np.max``/``np.sum`` over the
    axis give, ``-inf`` entries included; from length 8 on NumPy's unrolled
    pairwise sum adds in another order and the last bit may differ.  Every
    model here has 2 or 4 species.
    """
    shifted, e, total = _shifted_exp(x, axis)
    shifted -= np.log(total)
    e /= total
    return shifted, e


def softmax(x, axis=-1):
    """Stable softmax along ``axis`` (see :func:`log_softmax_and_softmax`)."""
    _, e, total = _shifted_exp(x, axis)
    e /= total
    return e


def log_softmax(x, axis=-1):
    """Stable log-softmax along ``axis`` (see :func:`log_softmax_and_softmax`)."""
    shifted, _, total = _shifted_exp(x, axis)
    shifted -= np.log(total)
    return shifted


def categorical_inverse_cdf(probs, u):
    """Draw from the categoricals ``probs`` (last axis) by inverse CDF.

    Returns, per row, how many CDF entries lie below the uniform ``u``
    (shape ``probs.shape[:-1]``), as ``intp``: ``(u[..., None] > cdf).sum(-1)``
    with ``cdf = np.cumsum(probs, axis=-1)``, computed slice by slice (see
    :func:`log_softmax_and_softmax`).  ``probs`` is overwritten by its CDF.
    A draw past the last CDF entry (roundoff) returns the number of species;
    callers clip.
    """
    cdf = probs
    for k in range(1, cdf.shape[-1]):
        cdf[..., k] += cdf[..., k - 1]
    picks = np.greater(u, cdf[..., 0]).astype(np.intp)
    for k in range(1, cdf.shape[-1]):
        picks += u > cdf[..., k]
    return picks


def stable_sigmoid(x):
    """Sigmoid that never overflows in ``exp``."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out
