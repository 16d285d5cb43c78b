"""Abstract Hamiltonian interface.

Samplers and proposals are written against this interface only, so every
model (Ising validation, Potts, HEA effective pair interactions) plugs into
every sampler unchanged.  The contract that matters most for correctness is
the *incremental-energy consistency* invariant, property-tested in
``tests/test_hamiltonians.py``::

    energy(after_move) == energy(before) + delta_energy_<move>(before, ...)

to floating-point roundoff, for every move type.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["Hamiltonian"]


class Hamiltonian(abc.ABC):
    """Energy model over fixed-lattice multi-species configurations.

    Concrete classes must set :attr:`n_sites` and :attr:`n_species` and
    implement the scalar :meth:`energy`, :meth:`delta_energy_swap` and
    :meth:`delta_energy_flip` and their batched forms :meth:`energies` and
    ``delta_energy_*_many``.  Every model in the package is a
    :class:`~repro.hamiltonians.pair.PairHamiltonian`, which implements all
    of them on the shared kernels of :mod:`repro.kernels`.
    """

    #: Number of lattice sites the model is defined over.
    n_sites: int
    #: Number of chemical species / spin states.
    n_species: int

    # ------------------------------------------------------------- required

    @abc.abstractmethod
    def energy(self, config: np.ndarray) -> float:
        """Total energy of ``config`` (shape ``(n_sites,)``, int species)."""

    @abc.abstractmethod
    def delta_energy_swap(self, config: np.ndarray, i: int, j: int) -> float:
        """Energy change of swapping the species at sites ``i`` and ``j``.

        Must cost O(z), not O(N).  Swapping equal species returns exactly 0.
        """

    @abc.abstractmethod
    def delta_energy_flip(self, config: np.ndarray, site: int, new_species: int) -> float:
        """Energy change of setting ``config[site] = new_species``.

        Must cost O(z).  Flipping to the current species returns exactly 0.
        Note: flips change composition; canonical (fixed-composition) samplers
        use swaps only.
        """

    # -------------------------------------------------------------- batched

    @abc.abstractmethod
    def energies(self, configs: np.ndarray) -> np.ndarray:
        """Energies of a batch of configurations, shape ``(B, n_sites) -> (B,)``."""

    @abc.abstractmethod
    def delta_energy_swap_many(self, configs: np.ndarray, ii, jj) -> np.ndarray:
        """ΔE of one swap per configuration row, ``(B, n_sites) -> (B,)``.

        Each row of ``configs`` is an independent configuration (a walker
        of a batched team) and the move ``(ii[b], jj[b])`` is priced
        against row ``b`` only.
        """

    @abc.abstractmethod
    def delta_energy_flip_many(self, configs: np.ndarray, sites, new_species) -> np.ndarray:
        """ΔE of one flip per configuration row, ``(B, n_sites) -> (B,)``."""

    # ------------------------------------------------------------- metadata

    def energy_bounds(self) -> tuple[float, float]:
        """Rigorous (possibly loose) bounds ``(E_lo, E_hi)`` on the spectrum.

        Used to size Wang-Landau histograms and REWL energy windows.  The
        default raises; pair models provide matrix-derived bounds.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not provide energy bounds; "
            "pass an explicit energy range to the sampler"
        )

    def validate_config(self, config: np.ndarray) -> np.ndarray:
        """Shape/range-check a configuration (returns it unchanged)."""
        config = np.asarray(config)
        if config.shape != (self.n_sites,):
            raise ValueError(
                f"configuration must have shape ({self.n_sites},), got {config.shape}"
            )
        if config.size and (int(config.min()) < 0 or int(config.max()) >= self.n_species):
            raise ValueError(f"species indices must lie in [0, {self.n_species})")
        return config

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_sites={self.n_sites}, n_species={self.n_species})"
