"""Reusable forward/backward workspaces: preallocated layer intermediates.

The batched DL-proposal inference path calls the same model with the same
batch shape thousands of times per run (one forward per walker super-step).
Allocating every Dense output, activation mask, and one-hot encoding afresh
each call is pure allocator traffic — on this interpreter it shows up right
next to the matmuls in the profile.  A :class:`Workspace` is a keyed pool of
preallocated buffers: layers bound to one (via
:meth:`repro.nn.layers.Sequential.bind_workspace`) route their forward and
backward intermediates through ``np.matmul(..., out=...)``-style calls into
pooled arrays instead of fresh allocations.

Contracts:

- **Numerically identical**: ``out=`` variants of the same ufuncs/matmuls
  produce bit-identical results, so binding a workspace never changes
  sampled trajectories (property-tested in ``tests/test_dl_batched.py``).
- **Shape-keyed**: buffers are keyed by ``(owner key, shape, dtype)``, so a
  model alternating between a training batch shape and an inference batch
  shape keeps one steady-state buffer per shape instead of thrashing.
- **Borrowed, not owned**: a buffer returned by :meth:`take` is valid until
  the next ``take`` with the same key — i.e. until the owning layer's next
  forward (or backward) pass.  Layer outputs must therefore be consumed (or
  copied) before the same network runs again, which every in-repo caller
  already does; training's forward→backward ordering satisfies it too.

:func:`encode_one_hot` is the matching allocation-free batch encoder used by
the DL proposals and :meth:`ReplayBuffer.sample_one_hot
<repro.training.buffer.ReplayBuffer.sample_one_hot>`: a single fancy-indexed
scatter, no per-row Python loop.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace", "encode_one_hot"]


class Workspace:
    """Keyed pool of preallocated numpy buffers.

    ``take(key, shape, dtype)`` returns a buffer dedicated to ``(key, shape,
    dtype)``, allocating it on first use and reusing it afterwards.  Buffer
    contents are *not* cleared between takes — callers fully overwrite them
    (``out=`` semantics).
    """

    def __init__(self):
        self._buffers: dict[tuple, np.ndarray] = {}

    def take(self, key, shape: tuple, dtype=np.float64) -> np.ndarray:
        """Borrow the buffer for ``(key, shape, dtype)`` (allocate-once)."""
        shape = tuple(int(s) for s in shape)
        slot = (key, shape, np.dtype(dtype))
        buf = self._buffers.get(slot)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[slot] = buf
        return buf

    @property
    def n_buffers(self) -> int:
        return len(self._buffers)

    def nbytes(self) -> int:
        """Total bytes currently pooled."""
        return sum(b.nbytes for b in self._buffers.values())

    def clear(self) -> None:
        self._buffers.clear()

    def __getstate__(self):
        # Scratch only, and keyed by ``id(layer)``: a copy could never find
        # these buffers again, so it starts empty and allocates on first use.
        return {"_buffers": {}}

    def __repr__(self) -> str:
        return f"Workspace(n_buffers={self.n_buffers}, nbytes={self.nbytes()})"


def encode_one_hot(configs: np.ndarray, n_species: int,
                   workspace: Workspace | None = None,
                   key: str = "one_hot") -> np.ndarray:
    """One-hot encode a ``(B, n_sites)`` batch with a single scatter.

    Returns ``(B, n_sites, n_species)`` float64 — the same values, dtype and
    layout as stacking :func:`repro.lattice.configuration.one_hot` row by
    row, without the per-row Python loop.  With a ``workspace`` the output
    lands in a pooled buffer (valid until the next call with the same
    ``key`` and shape).
    """
    configs = np.asarray(configs)
    if configs.ndim == 1:
        configs = configs[None]
    if configs.ndim != 2:
        raise ValueError(f"expected a (B, n_sites) batch, got shape {configs.shape}")
    idx = configs.astype(np.int64, copy=False)
    if idx.size and (idx.min() < 0 or idx.max() >= n_species):
        raise ValueError(
            f"species indices out of range [0, {n_species}): "
            f"[{idx.min()}, {idx.max()}]"
        )
    B, n_sites = idx.shape
    shape = (B, n_sites, n_species)
    if workspace is not None:
        out = workspace.take(key, shape)
        out[...] = 0.0
    else:
        out = np.zeros(shape, dtype=np.float64)
    out[np.arange(B)[:, None], np.arange(n_sites)[None, :], idx] = 1.0
    return out
