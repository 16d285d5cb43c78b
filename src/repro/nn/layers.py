"""Layers with explicit forward/backward passes.

Design: a :class:`Layer` owns :class:`Parameter` objects (value + gradient
buffer).  ``forward`` caches whatever ``backward`` needs; ``backward``
receives dL/d(output), *accumulates* into parameter gradients, and returns
dL/d(input).  Optimizers consume ``layer.parameters()``.

This mirrors the structure of a framework like PyTorch closely enough that
the VAE/MADE model code reads like its torch counterpart, while staying pure
numpy (the environment has no torch — DESIGN.md §4).
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import glorot_uniform

__all__ = [
    "Parameter",
    "Layer",
    "Dense",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Softplus",
    "Sequential",
]


class Parameter:
    """A trainable tensor with an accumulating gradient buffer."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Layer:
    """Base layer: parameter registry + forward/backward contract."""

    #: Optional :class:`repro.nn.workspace.Workspace` the layer routes its
    #: intermediates through (None = allocate per call, the default).
    _workspace = None

    def parameters(self) -> list[Parameter]:
        """All trainable parameters (subclasses with params override)."""
        return []

    def bind_workspace(self, workspace) -> None:
        """Route forward/backward intermediates through ``workspace``.

        Binding never changes results — ``out=`` variants of the same ops
        are bit-identical — only where they are written.  Buffers are
        borrowed per pass: a layer's output is valid until its next forward
        (see :mod:`repro.nn.workspace`).  Pass ``None`` to unbind.
        """
        self._workspace = workspace

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Dense(Layer):
    """Affine map ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features : int
    rng : numpy.random.Generator
        Source for the weight init.
    init : callable
        ``init(rng, fan_in, fan_out) -> (fan_in, fan_out) array``.
    bias : bool
        Include the additive bias (default True).
    mask : numpy.ndarray, optional
        Fixed binary mask applied multiplicatively to ``W`` (MADE
        autoregressive masks); the mask also gates the gradient.
    """

    def __init__(self, in_features: int, out_features: int, rng, init=glorot_uniform,
                 bias: bool = True, mask: np.ndarray | None = None, name: str = "dense"):
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(f"{name}.W", init(rng, in_features, out_features))
        self.bias = Parameter(f"{name}.b", np.zeros(out_features)) if bias else None
        if mask is not None:
            mask = np.asarray(mask, dtype=np.float64)
            if mask.shape != (in_features, out_features):
                raise ValueError(
                    f"mask shape {mask.shape} != ({in_features}, {out_features})"
                )
        self.mask = mask
        self._x: np.ndarray | None = None
        self._w: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def effective_weight(self, workspace=None) -> np.ndarray:
        if self.mask is None:
            return self.weight.value
        if workspace is None:
            return self.weight.value * self.mask
        buf = workspace.take((id(self), "eff_w"), self.weight.value.shape)
        return np.multiply(self.weight.value, self.mask, out=buf)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``x @ W + b``; keeps ``x`` and the masked weight it used for
        :meth:`backward`, so a training step masks ``W`` once."""
        self._x = x
        ws = self._workspace
        if ws is not None and x.ndim == 2:
            self._w = self.effective_weight(ws)
            y = np.matmul(x, self._w,
                          out=ws.take((id(self), "y"), (x.shape[0], self.out_features)))
            if self.bias is not None:
                y += self.bias.value
            return y
        self._w = self.effective_weight()
        y = x @ self._w
        if self.bias is not None:
            y = y + self.bias.value
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        ws = self._workspace
        if ws is not None and grad_out.ndim == 2 and self._x.ndim == 2:
            gw = np.matmul(self._x.T, grad_out,
                           out=ws.take((id(self), "gw"), self.weight.value.shape))
            if self.mask is not None:
                gw *= self.mask
            self.weight.grad += gw
            if self.bias is not None:
                self.bias.grad += grad_out.sum(axis=0)
            gx = ws.take((id(self), "gx"), (grad_out.shape[0], self.in_features))
            return np.matmul(grad_out, self._w.T, out=gx)
        gw = self._x.T @ grad_out
        if self.mask is not None:
            gw *= self.mask
        self.weight.grad += gw
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self._w.T


class _Activation(Layer):
    """Base for parameter-free elementwise activations."""

    def __init__(self):
        self._cache: np.ndarray | None = None


class ReLU(_Activation):
    """max(0, x)."""

    def forward(self, x):
        ws = self._workspace
        if ws is not None:
            self._cache = np.greater(x, 0, out=ws.take((id(self), "mask"), x.shape, bool))
            return np.maximum(x, 0.0, out=ws.take((id(self), "y"), x.shape))
        self._cache = x > 0
        return np.where(self._cache, x, 0.0)

    def backward(self, grad_out):
        ws = self._workspace
        if ws is not None:
            return np.multiply(grad_out, self._cache,
                               out=ws.take((id(self), "gx"), grad_out.shape))
        return grad_out * self._cache


class LeakyReLU(_Activation):
    """x for x>0, alpha·x otherwise."""

    def __init__(self, alpha: float = 0.01):
        super().__init__()
        self.alpha = float(alpha)

    def forward(self, x):
        self._cache = x > 0
        return np.where(self._cache, x, self.alpha * x)

    def backward(self, grad_out):
        return np.where(self._cache, grad_out, self.alpha * grad_out)


class Tanh(_Activation):
    """Hyperbolic tangent."""

    def forward(self, x):
        ws = self._workspace
        if ws is not None:
            y = np.tanh(x, out=ws.take((id(self), "y"), x.shape))
        else:
            y = np.tanh(x)
        self._cache = y
        return y

    def backward(self, grad_out):
        ws = self._workspace
        if ws is not None:
            t = ws.take((id(self), "gx"), grad_out.shape)
            np.multiply(self._cache, self._cache, out=t)
            np.subtract(1.0, t, out=t)
            return np.multiply(grad_out, t, out=t)
        return grad_out * (1.0 - self._cache**2)


class Sigmoid(_Activation):
    """Logistic sigmoid (stable at large |x|)."""

    def forward(self, x):
        out = np.empty_like(x, dtype=np.float64)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self._cache = out
        return out

    def backward(self, grad_out):
        return grad_out * self._cache * (1.0 - self._cache)


class Softplus(_Activation):
    """log(1 + exp(x)) (stable)."""

    def forward(self, x):
        self._cache = x
        out = np.empty_like(x, dtype=np.float64)
        pos = x > 0
        out[pos] = x[pos] + np.log1p(np.exp(-x[pos]))
        out[~pos] = np.log1p(np.exp(x[~pos]))
        return out

    def backward(self, grad_out):
        x = self._cache
        sig = np.empty_like(x, dtype=np.float64)
        pos = x >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        sig[~pos] = ex / (1.0 + ex)
        return grad_out * sig


class Sequential(Layer):
    """Layer composition with reverse-order backward."""

    def __init__(self, *layers: Layer):
        self.layers = list(layers)

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def bind_workspace(self, workspace) -> None:
        """Bind ``workspace`` to every child layer (recursively)."""
        self._workspace = workspace
        for layer in self.layers:
            layer.bind_workspace(workspace)

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out):
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def __iter__(self):
        return iter(self.layers)

    def __len__(self):
        return len(self.layers)
