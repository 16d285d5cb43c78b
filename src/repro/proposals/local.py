"""Local (symmetric) proposals.

These are the classical kernels the paper's DL proposals are measured
against: they satisfy ``q(x'|x) = q(x|x')`` by construction, so their
``log_q_ratio`` is exactly 0.

Symmetry arguments (why ``log_q_ratio = 0``):

- :class:`SwapProposal` with ``require_distinct=True`` draws uniformly from
  the set of unlike-species site pairs; a swap permutes the *multiset* of
  species, so the number of unlike pairs — hence the selection probability —
  is identical before and after the move.
- :class:`NeighborSwapProposal` draws uniformly from a fixed bond list.
- :class:`FlipProposal` draws a site uniformly and a *different* species
  uniformly; the reverse flip has the same probability.
"""

from __future__ import annotations

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.proposals.base import BatchMove, FieldBlock, Proposal
from repro.util.validation import check_integer

__all__ = ["SwapProposal", "NeighborSwapProposal", "FlipProposal"]

#: Passes of the swap rejection loop; a row whose pair still fails after
#: them keeps its last pair (possibly an identity move).
_MAX_DISTINCT_TRIES = 256


class PairBlock(FieldBlock):
    """One pre-drawn site pair per row-step, ``(n, B, 2)``: the bond-list
    moves of :class:`NeighborSwapProposal`, whose pairs never fail."""

    many = "delta_energy_swap_many"

    def resolve(self, step, configs, rows, streams):
        return self.arrays[0][step]

    def moves(self, configs, rows, move):
        sites = move[rows]
        return sites, configs[rows[:, None], sites[:, ::-1]]

    def native_fields(self):
        return ("pairs", self.arrays) if type(self) is PairBlock else None


class SwapBlock(PairBlock):
    """The swap rejection sampler, drawn where it is used: the block holds
    only its parameters, and each super-step draws its pairs from each
    team's stream as it resolves.

    Per team, every row draws ``(i, j)``, i then j, in row order; the rows
    whose pair fails (same species under ``distinct``, else ``i == j``) draw
    again, in row order, for up to ``_MAX_DISTINCT_TRIES`` passes, after
    which a row keeps its last pair.  So the move is uniform over acceptable
    ordered pairs and ``log q = 0``.  The compiled super-step draws the same
    values in the same order from the same generator.
    """

    def resolve(self, step, configs, rows, streams):
        n, distinct = self.params["n_sites"], self.params["distinct"]
        flat = configs.reshape(-1)
        move = np.empty((len(rows), 2), dtype=np.int64)
        for rng, lo, hi in streams:
            if lo == hi:
                continue
            pairs = rng.integers(n, size=(hi - lo, 2))
            todo = np.arange(lo, hi)  # rows whose last pair is unchecked
            for _ in range(_MAX_DISTINCT_TRIES - 1):
                ends = pairs[todo - lo]
                if distinct:  # configs as one flat row: a cheap take
                    ends = flat.take(ends + (todo * configs.shape[1])[:, None])
                todo = todo[ends[:, 0] == ends[:, 1]]
                if not len(todo):
                    break
                pairs[todo - lo] = rng.integers(n, size=(len(todo), 2))
            move[lo:hi] = pairs
        return move

    def native_fields(self):
        if type(self) is not SwapBlock:  # a subclass may resolve differently
            return None
        return ("swap_distinct" if self.params["distinct"] else "swap"), ()


class FlipBlock(FieldBlock):
    """A site and a species shift in ``1..S-1`` per row-step: two ``(n, B)``
    arrays."""

    many = "delta_energy_flip_many"

    def resolve(self, step, configs, rows, streams):
        sites, shifts = self.arrays[0][step], self.arrays[1][step]
        move = np.empty((len(rows), 2), dtype=sites.dtype)
        move[:, 0] = sites
        move[:, 1] = (configs[rows, sites] + shifts) % self.params["n_species"]
        return move

    def moves(self, configs, rows, move):
        move = move[rows]
        return move[:, :1], move[:, 1:]

    def native_fields(self):
        return ("flip", self.arrays) if type(self) is FlipBlock else None


class SwapProposal(Proposal):
    """Exchange the species of two random sites (canonical move).

    Parameters
    ----------
    require_distinct : bool
        Resample until the two sites carry different species (avoids
        wasting steps on identity moves).  With extremely lopsided
        compositions the resampling loop is bounded and falls back to the
        possibly-identity pair.
    """

    preserves_composition = True
    is_global = False

    def __init__(self, require_distinct: bool = True):
        self.require_distinct = bool(require_distinct)
        self.name = "swap"

    def draw_fields(self, configs, hamiltonian: Hamiltonian, rng, n_steps=1):
        """A :class:`SwapBlock`: it draws nothing here, its pairs are drawn
        as each super-step resolves."""
        return SwapBlock(distinct=self.require_distinct, n_sites=hamiltonian.n_sites)


class NeighborSwapProposal(Proposal):
    """Kawasaki dynamics: swap a random nearest-neighbor pair.

    Physically the local diffusion move for alloys; much slower mixing than
    :class:`SwapProposal`, included as the conservative baseline.  Its field
    block is a :class:`PairBlock` of one bond-list pair per row-step.
    """

    preserves_composition = True
    is_global = False

    def __init__(self, shell: int = 0):
        self.shell = check_integer("shell", shell, minimum=0)
        self.name = f"nbr-swap(shell={shell})"
        self._bonds: tuple | None = None  # (lattice, shell, bond pairs)

    def _pairs(self, hamiltonian) -> np.ndarray:
        """The bond list of ``hamiltonian``'s lattice, int64 ``(n_bonds, 2)``.

        Keyed on the lattice object itself, held by the cache, so a later
        lattice can never be served an earlier one's bonds."""
        lattice = hamiltonian.lattice
        bonds = self._bonds
        if bonds is None or bonds[0] is not lattice or bonds[1] != self.shell:
            shells = lattice.neighbor_shells(self.shell + 1)
            pairs = shells[self.shell].pairs().astype(np.int64)
            bonds = self._bonds = (lattice, self.shell, pairs)
        return bonds[2]

    def draw_fields(self, configs, hamiltonian: Hamiltonian, rng, n_steps=1):
        """One bond per row-step for ``n_steps`` super-steps."""
        pairs = self._pairs(hamiltonian)
        n_rows = np.atleast_2d(configs).shape[0]
        return PairBlock(pairs[rng.integers(len(pairs), size=(n_steps, n_rows))])


class FlipProposal(Proposal):
    """Mutate one random site to a uniformly chosen *different* species.

    Changes composition — the Ising/Potts (grand-canonical) move.  Canonical
    HEA samplers must not use it; samplers assert on the
    ``preserves_composition`` flag.
    """

    preserves_composition = False
    is_global = False

    def __init__(self):
        self.name = "flip"

    def draw_fields(self, configs, hamiltonian: Hamiltonian, rng, n_steps=1):
        """Sites and species shifts for ``n_steps`` super-steps."""
        shape = (n_steps, np.atleast_2d(configs).shape[0])
        sites = rng.integers(hamiltonian.n_sites, size=shape)
        shifts = 1 + rng.integers(hamiltonian.n_species - 1, size=shape)
        return FlipBlock(sites, shifts, n_species=hamiltonian.n_species)
