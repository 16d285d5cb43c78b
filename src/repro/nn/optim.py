"""Optimizers over :class:`repro.nn.layers.Parameter` lists.

An optimizer keeps its state (Adam's moments, SGD's velocity) and one scratch
vector as flat float64 vectors over all its parameters, in parameter order,
allocated once.  A step gathers the gradients into one flat vector with a
single ``np.concatenate``, runs its update as a dozen in-place ufunc calls
over the whole vector, and applies each parameter's slice to its value in
place.  The arithmetic is the per-parameter update's, operation for
operation, so the weights keep their bits; only the call count drops.  The
parameters keep owning their arrays, so a model pickles, deep-copies and
loads its weights exactly as before.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.nn.layers import Parameter

__all__ = ["SGD", "Adam"]


class _Optimizer:
    def __init__(self, params: list[Parameter], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)
        self._bounds = list(accumulate((p.value.size for p in self.params), initial=0))
        self._grad = np.empty(self._bounds[-1])
        self._scratch = np.empty(self._bounds[-1])

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """``flat`` cut into one view per parameter, shaped like its value."""
        b = self._bounds
        return [flat[b[k]:b[k + 1]].reshape(p.value.shape) for k, p in enumerate(self.params)]

    def _gather_grads(self) -> np.ndarray:
        return np.concatenate([p.grad.ravel() for p in self.params], out=self._grad)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def clip_gradients(self, max_norm: float) -> float:
        """Scale gradients so their global L2 norm is at most ``max_norm``.

        Squares land in the optimizer's scratch and are summed per
        parameter, in parameter order, so the norm and the scale are the
        same floats as summing each ``p.grad**2``.  Returns the pre-clip
        norm (useful for training diagnostics).
        """
        if max_norm <= 0:
            raise ValueError(f"max_norm must be positive, got {max_norm}")
        sq = 0.0
        for p, s in zip(self.params, self._views(self._scratch)):
            sq += float(np.add.reduce(np.multiply(p.grad, p.grad, out=s), axis=None))
        norm = float(np.sqrt(sq))
        if norm > max_norm:
            scale = max_norm / (norm + 1e-12)
            for p in self.params:
                p.grad *= scale
        return norm

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(_Optimizer):
    """Stochastic gradient descent with classical momentum.

    ``v ← momentum·v − lr·g;  θ ← θ + v``
    """

    def __init__(self, params, lr: float = 1e-2, momentum: float = 0.0):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity = np.zeros(self._bounds[-1])

    def step(self) -> None:
        g, vel = self._gather_grads(), self._velocity
        vel *= self.momentum
        vel -= np.multiply(g, self.lr, out=self._scratch)
        for p, d in zip(self.params, self._views(vel)):
            p.value += d


class Adam(_Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction.

    ``m ← β1·m + (1−β1)·g;  v ← β2·v + (1−β2)·g²;
    θ ← θ − lr·(m/(1−β1^t)) / (√(v/(1−β2^t)) + ε)``
    """

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        super().__init__(params, lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {beta1}, {beta2}")
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self._m = np.zeros(self._bounds[-1])
        self._v = np.zeros(self._bounds[-1])
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        g, m, v, s = self._gather_grads(), self._m, self._v, self._scratch
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=s)
        v *= self.beta2
        np.multiply(g, g, out=s)
        s *= 1.0 - self.beta2
        v += s
        np.divide(m, b1t, out=s)
        s *= self.lr
        np.divide(v, b2t, out=g)  # g is spent: it holds the denominator
        np.sqrt(g, out=g)
        g += self.eps
        s /= g
        for p, d in zip(self.params, self._views(s)):
            p.value -= d
