"""Precomputed lookup tables for pair-interaction kernels.

Everything the vectorized kernels in :mod:`repro.kernels.ops` need is built
per Hamiltonian and frozen here:

- **pair arrays** (``pair_i``/``pair_j``): every undirected bond of every
  shell, for the one-gather full-energy evaluation;
- **fused neighbor table**: the per-shell neighbor tables stacked into one,
  stored transposed (``cat_table_T``, ``(z, n_sites)``: the batched kernels
  ``take`` whole ``(z, rows)`` blocks out of it) with ``cat_table`` its
  ``(n_sites, z)`` view, and per-column species-key offsets
  (``shell_offsets``) so a single lookup prices a move across all shells;
- **difference rows** (``diff_rows``)::

      diff_rows[a, b, c + s*n_species] = V_s[b, c] - V_s[a, c]

  the per-neighbor ΔE contribution of repainting a site from species ``a``
  to ``b`` when the neighbor (in shell ``s``) carries species ``c``; and
  ``diff_flat``, the same rows raveled with one all-zero *null key*
  appended to each, which the batched kernels address flat
  (``pair_offsets``) and point shared i–j bonds of a swap at;
- **bond corrections** (``bond_corr`` per shell)::

      bond_corr_s[a, b] = V_s[a, a] + V_s[b, b] - 2 V_s[a, b]

  subtracted by the scalar swap kernel once per shared bond (the two
  one-site terms double-handle the i–j bond).

Memory model (DESIGN.md §17): the index tables are the dominant footprint
at ultra-large N, so every derived structure is **lazy** (built and cached
on first use — a run that only ever prices swaps never materializes the
pair arrays, a full-energy-only run never builds the fused table, and there
is one stored fused table, not one per orientation) and
**lean** (site indices are int32, species keys int16; configurations stay
int8 end to end — the kernels never up-cast them).  For streaming
evaluation that never materializes any (N, z) table at all, see
:class:`repro.kernels.chunked.ChunkedPairTables`.

The tables are plain numpy arrays (no views into caller state), so a
:class:`PairTables` pickles with the walkers (shm ranks, checkpoints).
"""

from __future__ import annotations

import numpy as np

__all__ = ["PairTables", "INDEX_DTYPE", "KEY_DTYPE"]

#: Site indices in neighbor/pair tables.  int32 addresses 2·10⁹ sites —
#: far beyond the 10⁶-site ultra-large tier — at half the bandwidth and
#: memory of the int64 tables this module used to build.
INDEX_DTYPE = np.int32

#: Species keys into ``diff_rows`` (bounded by n_species · n_shells, so a
#: 2-byte integer is generous; int8 configs promote to this on addition).
KEY_DTYPE = np.int16


def _lazy(build):
    """Cache-on-first-access property: the decorated builder runs once and
    its result is pinned into the instance ``__dict__`` (pickles carry
    whatever was materialized, nothing more)."""
    name = build.__name__

    def getter(self):
        cache = self._cache
        if name not in cache:
            cache[name] = build(self)
        return cache[name]

    getter.__name__ = name
    getter.__doc__ = build.__doc__
    return property(getter)


class PairTables:
    """Frozen index/lookup tables for one pair Hamiltonian.

    Construction is O(1): every derived table is built lazily on first
    access, so scalar-only runs never pay for the batched structures and
    incremental-only runs never pay for the full-energy pair arrays.

    Parameters
    ----------
    shells : sequence of NeighborShell
        One shell per interaction matrix, innermost first.
    shell_matrices : sequence of (n_species, n_species) symmetric arrays
    field : (n_species,) array or None
        On-site energy per species.
    """

    def __init__(self, shells, shell_matrices, field=None):
        mats = [np.asarray(m, dtype=np.float64) for m in shell_matrices]
        n_species = mats[0].shape[0]
        self.shell_matrices = tuple(mats)
        self.n_species = n_species
        self.n_shells = len(mats)
        self.field = None if field is None else np.asarray(field, dtype=np.float64)
        # Per-shell neighbor tables for the O(z) incremental updates.  The
        # lattice builds (and caches) these; everything else derives lazily.
        self.tables = [np.ascontiguousarray(s.table, dtype=INDEX_DTYPE)
                       if s.table.dtype != INDEX_DTYPE else s.table
                       for s in shells]
        self._shells = tuple(shells)
        self._cache: dict[str, object] = {}

    # ------------------------------------------------- full-energy structures

    @_lazy
    def pair_arrays(self):
        """Per-shell ``(pair_i, pair_j)`` undirected-bond arrays (lazy)."""
        pair_i, pair_j = [], []
        for shell in self._shells:
            pairs = shell.pairs()
            pair_i.append(np.ascontiguousarray(pairs[:, 0], dtype=INDEX_DTYPE))
            pair_j.append(np.ascontiguousarray(pairs[:, 1], dtype=INDEX_DTYPE))
        return pair_i, pair_j

    @property
    def pair_i(self) -> list[np.ndarray]:
        return self.pair_arrays[0]

    @property
    def pair_j(self) -> list[np.ndarray]:
        return self.pair_arrays[1]

    # ------------------------------------------------ incremental structures

    @_lazy
    def bond_corr(self):
        """Per-shell same-bond correction ``V[a,a] + V[b,b] - 2 V[a,b]``."""
        out = []
        for m in self.shell_matrices:
            diag = np.diag(m)
            out.append(diag[:, None] + diag[None, :] - 2.0 * m)
        return out

    @_lazy
    def cat_table_T(self):
        """All shells' neighbor tables fused, ``(z, n_sites)`` C-contiguous
        (lazy) — the one stored fused table.

        Column ``site`` lists that site's neighbors across all shells, so
        ``take(sites, axis=1)`` hands the batched kernels a ``(z, rows)``
        block whose long axis is the row axis.
        """
        # out=: a lone transposed shell would otherwise come back F-ordered,
        # and ``take`` copies a non-contiguous table on every call.
        out = np.empty((self.n_neighbor_cols, self.tables[0].shape[0]), INDEX_DTYPE)
        return np.concatenate([t.T for t in self.tables], axis=0, out=out)

    @property
    def cat_table(self):
        """``(n_sites, z)`` view of :attr:`cat_table_T` (no second table):
        one row lookup prices a move across all shells."""
        return self.cat_table_T.T

    @_lazy
    def shell_offsets(self):
        """Per-column species-key offset ``s · n_species`` (int16)."""
        return np.concatenate(
            [np.full(t.shape[1], s * self.n_species, dtype=KEY_DTYPE)
             for s, t in enumerate(self.tables)]
        )

    @_lazy
    def shell_of_col(self):
        """Shell index of every fused-table column (int16)."""
        return np.concatenate(
            [np.full(t.shape[1], s, dtype=KEY_DTYPE)
             for s, t in enumerate(self.tables)]
        )

    @_lazy
    def diff_rows(self):
        """``diff_rows[a, b, c + s*n_species] = V_s[b, c] - V_s[a, c]``."""
        n_species = self.n_species
        mats = self.shell_matrices
        out = np.empty((n_species, n_species, n_species * len(mats)))
        for a in range(n_species):
            for b in range(n_species):
                out[a, b] = np.concatenate([m[b] - m[a] for m in mats])
        return out

    @_lazy
    def diff_flat(self):
        """``diff_rows`` raveled, each ``[a, b]`` row extended by one all-zero
        *null key* (index ``n_species * n_shells``): the batched kernels
        address it as ``(a * n_species + b) * (K + 1) + key``."""
        rows = self.diff_rows
        return np.concatenate(
            [rows, np.zeros(rows.shape[:2] + (1,))], axis=2).reshape(-1)

    @_lazy
    def pair_offsets(self):
        """``diff_flat`` offset of pair ``(a, b)`` as ``rows[a] + cols[b]``."""
        cols = np.arange(self.n_species, dtype=INDEX_DTYPE) * (self.diff_rows.shape[2] + 1)
        return cols * self.n_species, cols

    # ----------------------------------------------------------------- misc

    @property
    def n_neighbor_cols(self) -> int:
        """Total neighbor-table width (sum of shell coordination numbers)."""
        return sum(t.shape[1] for t in self.tables)

    def table_nbytes(self) -> int:
        """Bytes held by the *materialized* index/lookup structures so far.

        The per-site byte budget in DESIGN.md §17 is measured with this:
        it counts the shell tables plus whatever lazy structures the
        workload actually touched, which is exactly what the process pays.
        """
        def nbytes(value):
            if isinstance(value, np.ndarray):
                return value.nbytes
            return sum(nbytes(part) for part in value)   # lists / tuples of arrays

        return int(nbytes(self.tables) + nbytes(list(self._cache.values())))

    def __getstate__(self):
        return self.__dict__

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__dict__.setdefault("_cache", {})

    def __repr__(self) -> str:
        return (
            f"PairTables(n_species={self.n_species}, n_shells={self.n_shells}, "
            f"n_neighbor_cols={self.n_neighbor_cols})"
        )
