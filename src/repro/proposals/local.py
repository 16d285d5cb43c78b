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

_MAX_DISTINCT_TRIES = 256

#: Candidate site pairs drawn per row-step of a swap block.  A candidate
#: fails with probability ~1/n_species on an equiatomic alloy, so 6 leave
#: about one row-step in 4000 to the rejection loop.
_SWAP_CANDIDATES = 6


class SwapBlock(FieldBlock):
    """``_SWAP_CANDIDATES`` i.i.d. site pairs per row-step, shape
    ``(n, B, T, 2)``.

    A row-step takes its first acceptable pair, and one whose ``T`` pairs
    all fail runs the bounded rejection loop on its team's stream.  The
    candidates are i.i.d. and drawn before the configuration they meet, so
    "first acceptable of T, else keep drawing" *is* the rejection sampler:
    the move is uniform over acceptable ordered pairs and ``log q = 0``.
    """

    many = "delta_energy_swap_many"
    _flat = None  # per-block cache, filled by the first resolve

    def resolve(self, step, configs, rows, streams):
        pairs = self.arrays[0][step]
        if self.params["distinct"]:  # unlike species implies i != j
            if self._flat is None:  # candidates as indices into configs.reshape(-1)
                self._flat = self.arrays[0] + (rows * configs.shape[1])[:, None, None]
            species = configs.reshape(-1).take(self._flat[step])
            ok = species[..., 0] != species[..., 1]
        else:
            ok = pairs[..., 0] != pairs[..., 1]
        pick = ok.argmax(axis=1) + rows * pairs.shape[1]
        move = pairs.reshape(-1, 2).take(pick, axis=0)
        good = ok.reshape(-1).take(pick)
        if np.count_nonzero(good) < len(rows):
            for rng, lo, hi in streams:
                sub = lo + np.flatnonzero(~good[lo:hi])
                if len(sub):
                    move[sub] = self.redraw(configs[sub], rng)
        return move

    def moves(self, configs, rows, move):
        sites = move[rows]
        return sites, configs[rows[:, None], sites[:, ::-1]]

    def native_fields(self):
        if type(self) is not SwapBlock:  # a subclass may resolve differently
            return None
        return ("swap_distinct" if self.params["distinct"] else "swap"), self.arrays

    def redraw(self, configs, rng):
        """A pair for each row of ``configs`` by the bounded rejection loop
        (falls back to a possibly-identity pair) — the move of a row-step
        whose drawn candidates all failed.  A bond-list block never gets
        here: its pairs are distinct sites."""
        n, distinct = self.params["n_sites"], self.params["distinct"]
        rows = np.arange(configs.shape[0])[:, None]
        pairs = rng.integers(n, size=(len(rows), 2))
        for _ in range(_MAX_DISTINCT_TRIES - 1):
            species = configs[rows, pairs] if distinct else pairs
            bad = species[:, 0] == species[:, 1]
            if not bad.any():
                break
            pairs[bad] = rng.integers(n, size=(int(bad.sum()), 2))
        return pairs


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
        """Candidate site pairs for ``n_steps`` super-steps (one array draw)."""
        n = hamiltonian.n_sites
        shape = (n_steps, np.atleast_2d(configs).shape[0], _SWAP_CANDIDATES, 2)
        return SwapBlock(rng.integers(n, size=shape),
                         distinct=self.require_distinct, n_sites=n)


class NeighborSwapProposal(Proposal):
    """Kawasaki dynamics: swap a random nearest-neighbor pair.

    Physically the local diffusion move for alloys; much slower mixing than
    :class:`SwapProposal`, included as the conservative baseline.  Its field
    block is a :class:`SwapBlock` of one bond-list pair per row-step
    (``distinct=False``), so it runs in the compiled block unchanged.
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
        picks = rng.integers(len(pairs), size=(n_steps, n_rows))
        return SwapBlock(pairs[picks].reshape(n_steps, n_rows, 1, 2),
                         distinct=False, n_sites=hamiltonian.n_sites)


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
