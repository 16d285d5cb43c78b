"""Generic per-shell pair-interaction Hamiltonian.

Energy convention::

    E(c) = sum_s sum_{<i,j> in shell s} V_s[c_i, c_j]  +  sum_i f[c_i]

where each undirected bond ``<i,j>`` is counted once, ``V_s`` is the
symmetric interaction matrix of shell ``s`` and ``f`` an optional on-site
(per-species) field.  Ising, Potts, and the HEA effective-pair-interaction
models are all thin wrappers over this class.

All energy evaluation delegates to :mod:`repro.kernels`: the constructor
builds a :class:`~repro.kernels.tables.PairTables` (fused neighbor tables,
difference-row ΔE lookups, bond-correction stacks) and every method below is
a thin call into :mod:`repro.kernels.ops`.  The scalar ΔE path there is
operation-for-operation the pre-kernel implementation, so single-walker
trajectories are bit-identical; the ``*_many`` kernels are the fully
vectorized batched shape (see the kernels module docs).
"""

from __future__ import annotations

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.kernels import ops
from repro.kernels.tables import PairTables
from repro.lattice.structures import Lattice, NeighborShell

__all__ = ["PairHamiltonian"]


class PairHamiltonian(Hamiltonian):
    """Pair-interaction model on a lattice.

    Parameters
    ----------
    lattice : Lattice
        The underlying periodic lattice.
    shell_matrices : sequence of (n_species, n_species) arrays
        One symmetric interaction matrix per coordination shell, innermost
        shell first.  Asymmetric input raises.
    field : array_like of shape (n_species,), optional
        On-site energy per species.
    name : str
        Label used in reports.
    """

    def __init__(self, lattice: Lattice, shell_matrices, field=None, name: str = "pair"):
        self.lattice = lattice
        self.name = name
        mats = [np.asarray(m, dtype=np.float64) for m in shell_matrices]
        if not mats:
            raise ValueError("at least one shell interaction matrix is required")
        n_species = mats[0].shape[0]
        for k, m in enumerate(mats):
            if m.shape != (n_species, n_species):
                raise ValueError(
                    f"shell matrix {k} has shape {m.shape}, expected "
                    f"({n_species}, {n_species})"
                )
            if not np.allclose(m, m.T):
                raise ValueError(f"shell matrix {k} must be symmetric")
        self.shell_matrices = tuple(mats)
        self.n_species = n_species
        self.n_sites = lattice.n_sites
        self.field = None if field is None else np.asarray(field, dtype=np.float64)
        if self.field is not None and self.field.shape != (n_species,):
            raise ValueError(
                f"field must have shape ({n_species},), got {self.field.shape}"
            )

        shells: tuple[NeighborShell, ...] = lattice.neighbor_shells(len(mats))
        self.shells = shells
        #: Precomputed kernel tables (see :mod:`repro.kernels.tables`).
        self.tables = PairTables(shells, self.shell_matrices, self.field)

    # ---------------------------------------------------------------- energy

    def energy(self, config: np.ndarray) -> float:
        return ops.energy(self.tables, config)

    def energies(self, configs: np.ndarray) -> np.ndarray:
        return ops.energies(self.tables, configs)

    # ----------------------------------------------------------- incremental

    def delta_energy_swap(self, config: np.ndarray, i: int, j: int) -> float:
        return ops.delta_swap(self.tables, config, i, j)

    def delta_energy_flip(self, config: np.ndarray, site: int, new_species: int) -> float:
        return ops.delta_flip(self.tables, config, site, new_species)

    def delta_energy_swap_many(self, configs: np.ndarray, ii, jj) -> np.ndarray:
        """Vectorized per-walker swap ΔE (batched multi-walker stepping)."""
        return ops.delta_swap_many(self.tables, configs, ii, jj)

    def delta_energy_flip_many(self, configs: np.ndarray, sites, new_species) -> np.ndarray:
        """Vectorized per-walker flip ΔE (batched multi-walker stepping)."""
        return ops.delta_flip_many(self.tables, configs, sites, new_species)

    # --------------------------------------------------------------- bounds

    def energy_bounds(self) -> tuple[float, float]:
        """Matrix-derived rigorous bounds on the energy spectrum."""
        lo = 0.0
        hi = 0.0
        for m, pi in zip(self.shell_matrices, self.tables.pair_i):
            n_pairs = pi.shape[0]
            lo += n_pairs * float(m.min())
            hi += n_pairs * float(m.max())
        if self.field is not None:
            lo += self.n_sites * float(self.field.min())
            hi += self.n_sites * float(self.field.max())
        return lo, hi

    # ---------------------------------------------------------------- extra

    @property
    def n_shells(self) -> int:
        return len(self.shell_matrices)

    def bond_count(self, shell: int = 0) -> int:
        """Number of undirected bonds in the given shell."""
        return self.tables.pair_i[shell].shape[0]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, n_sites={self.n_sites}, "
            f"n_species={self.n_species}, n_shells={self.n_shells})"
        )
