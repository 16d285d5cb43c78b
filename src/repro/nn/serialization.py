"""Parameter (de)serialization as ``.npz`` archives.

Used by the training loop to checkpoint proposal models and by the parallel
driver to broadcast refreshed model weights to walkers.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from repro.nn.layers import Parameter

__all__ = ["save_params", "load_params", "params_to_bytes", "params_from_bytes"]


def _named(params: list[Parameter]) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for k, p in enumerate(params):
        key = f"{k:03d}:{p.name}"
        out[key] = p.value
    return out


def save_params(params: list[Parameter], path) -> None:
    """Save parameter values to ``path`` (``.npz``)."""
    np.savez(Path(path), **_named(params))


def load_params(params: list[Parameter], path) -> None:
    """Load values saved by :func:`save_params` into ``params`` in place.

    The parameter list must match in order, names, and shapes.
    """
    with np.load(Path(path)) as archive:
        _assign(params, archive)


def params_to_bytes(params: list[Parameter]) -> bytes:
    """Serialize parameters to bytes."""
    buf = io.BytesIO()
    np.savez(buf, **_named(params))
    return buf.getvalue()


def params_from_bytes(params: list[Parameter], blob: bytes) -> None:
    """Inverse of :func:`params_to_bytes`, assigning in place."""
    with np.load(io.BytesIO(blob)) as archive:
        _assign(params, archive)


def _assign(params: list[Parameter], archive) -> None:
    keys = sorted(archive.files)
    if len(keys) != len(params):
        raise ValueError(
            f"checkpoint has {len(keys)} parameters, model has {len(params)}"
        )
    for key, p in zip(keys, params):
        name = key.split(":", 1)[1]
        if name != p.name:
            raise ValueError(f"parameter name mismatch: checkpoint {name!r} vs model {p.name!r}")
        value = archive[key]
        if value.shape != p.value.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: checkpoint {value.shape} vs model {p.value.shape}"
            )
        p.value[...] = value
