"""The unified Sampler protocol and sampler registry.

Every sampler in :mod:`repro.sampling` — Metropolis, Wang-Landau (one
walker or a team), multicanonical, parallel tempering, Wolff — exposes the same
entry point::

    sampler.run(...) -> Result

where the result is a dataclass specific to the algorithm (``RunStats``,
``WangLandauResult``, ...).  :class:`Sampler` captures that contract as a
``runtime_checkable`` :class:`typing.Protocol`: experiment drivers and
tests type against it instead of importing module-private helpers, and
``isinstance(obj, Sampler)`` verifies third-party samplers structurally.

The registry maps stable string names to sampler classes so configuration
files and CLIs can select an algorithm without importing its module::

    cls = get_sampler("wang_landau")
    sampler = make_sampler("metropolis", hamiltonian=..., ...)
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

__all__ = ["Sampler", "SAMPLERS", "register_sampler", "get_sampler", "make_sampler"]


@runtime_checkable
class Sampler(Protocol):
    """Structural type of every MC sampler: a ``run()`` producing a result.

    Signatures vary by algorithm (``run(n_steps)``, ``run(max_steps=...)``,
    ``run(n_rounds, steps_per_round)``...), so the protocol constrains the
    entry-point *name*, not its parameters — the per-algorithm result
    dataclasses carry the typed payload.
    """

    def run(self, *args, **kwargs): ...


#: Stable-name → sampler-class registry (populated by ``register_sampler``).
SAMPLERS: dict[str, type] = {}


def register_sampler(name: str):
    """Class decorator adding a sampler to :data:`SAMPLERS` under ``name``."""

    def _register(cls: type) -> type:
        if not isinstance(cls, type) or not callable(getattr(cls, "run", None)):
            raise TypeError(f"{cls!r} does not satisfy the Sampler protocol")
        existing = SAMPLERS.get(name)
        if existing is not None and existing is not cls:
            raise ValueError(f"sampler name {name!r} already registered ({existing})")
        SAMPLERS[name] = cls
        return cls

    return _register


def get_sampler(name: str) -> type:
    """Look up a registered sampler class by its stable name."""
    try:
        return SAMPLERS[name]
    except KeyError:
        raise KeyError(
            f"unknown sampler {name!r}; registered: {sorted(SAMPLERS)}"
        ) from None


def make_sampler(name: str, **kwargs):
    """Construct a registered sampler by name with keyword arguments."""
    return get_sampler(name)(**kwargs)
