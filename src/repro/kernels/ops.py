"""Vectorized energy / delta-energy kernels over :class:`PairTables`.

These free functions are the single implementation of the pair-model hot
path; :class:`repro.hamiltonians.pair.PairHamiltonian` delegates every
energy method here.  Each move kind has two implementations:

- *scalar* (``energy``, ``delta_swap``, ``delta_flip``) — one config, one
  move.  These are kept **operation-for-operation identical** to the
  pre-kernel implementations so single-walker trajectories stay
  bit-identical (tested in ``tests/test_batched_wl.py``).
- *one gather core* (``_repaint_delta``) behind two thin wrappers,
  ``*_many`` — a batch of configs, one move per config, the multi-walker
  stepping shape.  A single config is read by every move.

The core (DESIGN.md §11) works on the raveled config plane with every
intermediate laid out ``(z, ends, rows)`` so each NumPy call's inner loop
runs along the long row axis: neighbor sites out of ``cat_table_T``, plus
``row * n_sites``, one int8 ``take``, shell and species-pair key offsets,
one ``take`` from ``diff_flat``, one sum.  A swap prices both ends in one
pass — end ``j`` keyed by the reversed pair, so the halves add — and a
shared i–j bond reads ``diff_flat``'s all-zero *null key*, which is its
exact contribution (swapping a bond's two ends leaves its energy alone).

Index safety: a site ``>= n_sites`` raises ``IndexError`` (the table
``take`` sees the raw site before any address is formed), and so does a
negative site — the flat address would otherwise read the previous row.
Species are not range-checked.

Dtype discipline (DESIGN.md §17): configurations are **int8 end to end**.
The kernels never up-cast them — species gathered from an int8 config stay
int8, adding the int16 ``shell_offsets`` promotes keys only to int16, and
only flat addresses are index-width.  A float-dtype config is a caller bug
and raises instead of being silently truncated.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.tables import PairTables

__all__ = [
    "energy",
    "energies",
    "delta_swap",
    "delta_flip",
    "delta_swap_many",
    "delta_flip_many",
    "pair_count_deltas_swap",
    "pair_count_deltas_swap_alternatives",
]


def _as_int_configs(configs) -> np.ndarray:
    """View ``configs`` as an array without copying; reject non-integer
    dtypes (a float config would silently mis-index the lookup tables)."""
    configs = np.asarray(configs)
    if configs.dtype.kind not in "iu":
        raise TypeError(
            f"configurations must have an integer dtype (int8 preferred), "
            f"got {configs.dtype}"
        )
    return configs


# ------------------------------------------------------------------ energy


def energy(t: PairTables, config: np.ndarray) -> float:
    """Total energy: one fancy-indexing pass per shell, no Python loops."""
    config = _as_int_configs(config)
    total = 0.0
    for m, pi, pj in zip(t.shell_matrices, t.pair_i, t.pair_j):
        total += m[config[pi], config[pj]].sum()
    if t.field is not None:
        total += t.field[config].sum()
    return float(total)


def energies(t: PairTables, configs: np.ndarray) -> np.ndarray:
    """Energies of a config batch, shape ``(B, n_sites) -> (B,)``."""
    configs = np.atleast_2d(_as_int_configs(configs))
    total = np.zeros(configs.shape[0], dtype=np.float64)
    for m, pi, pj in zip(t.shell_matrices, t.pair_i, t.pair_j):
        total += m[configs[:, pi], configs[:, pj]].sum(axis=1)
    if t.field is not None:
        total += t.field[configs].sum(axis=1)
    return total


# ------------------------------------------------------- scalar incremental


def delta_swap(t: PairTables, config: np.ndarray, i: int, j: int) -> float:
    """O(z) ΔE of swapping sites ``i`` and ``j`` (bit-exact scalar path)."""
    a = int(config[i])
    b = int(config[j])
    if a == b or i == j:
        return 0.0
    row = t.diff_rows[a, b]
    nbr_i = t.cat_table[i]
    keys_i = config[nbr_i] + t.shell_offsets
    keys_j = config[t.cat_table[j]] + t.shell_offsets
    delta = row[keys_i].sum() - row[keys_j].sum()
    # The i-j bond (when present in a shell) was double-handled above.
    hits = nbr_i == j
    if hits.any():
        for col in np.nonzero(hits)[0]:
            delta -= t.bond_corr[t.shell_of_col[col]][a, b]
    return float(delta)


def delta_flip(t: PairTables, config: np.ndarray, site: int, new_species: int) -> float:
    """O(z) ΔE of repainting ``site`` to ``new_species`` (bit-exact)."""
    old = int(config[site])
    new = int(new_species)
    if old == new:
        return 0.0
    keys = config[t.cat_table[site]] + t.shell_offsets
    delta = t.diff_rows[old, new][keys].sum()
    if t.field is not None:
        delta += t.field[new] - t.field[old]
    return float(delta)


# ------------------------------------------------- the batched gather core


def _repaint_delta(t: PairTables, configs, sites, new=None) -> np.ndarray:
    """ΔE of repainting ``sites[:, r]`` in row ``r``'s config: ``(H, R) -> (R,)``.

    The one batched ΔE implementation.  ``new`` gives the species each site
    is repainted to (a flip, ``H = 1``); ``new=None`` is a swap (``H = 2``):
    each end takes the other's species and positions holding the i–j bond
    read the null key.  A single 1-D config (or a one-row batch) is read by
    every move.
    """
    configs = _as_int_configs(configs)
    if sites.size and sites.min() < 0:
        raise IndexError("negative site index in a batched ΔE kernel")
    n_rows = sites.shape[1]
    if configs.ndim == 2 and configs.shape[0] not in (1, n_rows):
        raise ValueError(f"{n_rows} moves for {configs.shape[0]} config rows")
    if n_rows == 1:
        # NumPy sums a lone column pairwise and two or more term by term;
        # price it twice so a row's ΔE never depends on its batch.
        sites = np.repeat(sites, 2, axis=1)
    nbr = t.cat_table_T.take(sites, axis=1)          # (z, H, R); bad site raises
    base = np.arange(0, configs.size, configs.shape[-1])
    nbr = nbr + base                                 # flat addresses, row by row
    sites = sites + base
    flat = configs.reshape(-1)
    old = flat.take(sites)
    row_of, col_of = t.pair_offsets
    pair = row_of.take(old)
    pair += col_of.take(old[::-1] if new is None else new)
    keys = flat.take(nbr) + t.shell_offsets[:, None, None]
    if new is None:
        np.putmask(keys, nbr == sites[::-1], t.diff_rows.shape[2])
    delta = t.diff_flat.take(keys + pair).sum(axis=(0, 1))
    if new is not None and t.field is not None:
        delta += t.field[new] - t.field[old[0]]
    return delta[:n_rows]


def delta_swap_many(t: PairTables, configs: np.ndarray, ii, jj) -> np.ndarray:
    """ΔE of one swap per config row: ``(B, n_sites), (B,), (B,) -> (B,)``.

    The multi-walker stepping kernel: row ``b`` prices the swap
    ``(ii[b], jj[b])`` on walker ``b``'s configuration.
    """
    return _repaint_delta(t, configs, np.concatenate((ii, jj)).reshape(2, len(ii)))


def delta_flip_many(t: PairTables, configs: np.ndarray, sites, new_species) -> np.ndarray:
    """ΔE of one flip per config row: ``(B, n_sites), (B,), (B,) -> (B,)``."""
    return _repaint_delta(t, configs, np.asarray(sites)[None], np.asarray(new_species))


# -------------------------------------------------- SRO pair-count deltas


def pair_count_deltas_swap(t: PairTables, config: np.ndarray,
                           i: int, j: int) -> np.ndarray:
    """O(z) change in per-shell directed pair counts for swapping ``i, j``.

    Returns a ``(n_shells, n_species, n_species)`` int64 delta ``D`` such
    that ``pair_counts(config_after, shell_table_s) ==
    pair_counts(config_before, shell_table_s) + D[s]`` for every shell —
    the incremental update the SRO-targeted structure generator
    (:mod:`repro.lattice.generate`) anneals on instead of energies.
    """
    config = _as_int_configs(config)
    a = int(config[i])
    b = int(config[j])
    S = t.n_species
    n_shells = t.n_shells
    D = np.zeros((n_shells, S, S), dtype=np.int64)  # lint-api: allow
    if a == b or i == j:
        return D
    shell_of_col = t.shell_of_col
    nbr_i = t.cat_table[i]
    nbr_j = t.cat_table[j]
    # Per-shell species histograms of each endpoint's neighbors (one
    # bincount over the fused row, split by shell via the column offsets).
    ni = np.bincount(shell_of_col * S + config[nbr_i],
                     minlength=n_shells * S).reshape(n_shells, S)
    nj = np.bincount(shell_of_col * S + config[nbr_j],
                     minlength=n_shells * S).reshape(n_shells, S)
    # Repaint i: a -> b against stale neighbor species (both directions).
    D[:, a, :] -= ni
    D[:, b, :] += ni
    D[:, :, a] -= ni
    D[:, :, b] += ni
    # Repaint j: b -> a.
    D[:, b, :] -= nj
    D[:, a, :] += nj
    D[:, :, b] -= nj
    D[:, :, a] += nj
    # Each direct i-j bond was double-handled with stale endpoint species;
    # its true contribution is unchanged by the swap ((a,b)+(b,a) before
    # and after), so back out the spurious terms per shell.
    hits = nbr_i == j
    if hits.any():
        m = np.bincount(shell_of_col[hits], minlength=n_shells)
        D[:, a, b] += 2 * m
        D[:, b, a] += 2 * m
        D[:, a, a] -= 2 * m
        D[:, b, b] -= 2 * m
    return D


def pair_count_deltas_swap_alternatives(t: PairTables, config: np.ndarray,
                                        ii, jj) -> np.ndarray:
    """Pair-count deltas for many *alternative* swaps on one config.

    Batched :func:`pair_count_deltas_swap`: ``(M,), (M,) ->
    (M, n_shells, n_species, n_species)`` int64, every delta relative to
    the same starting ``config`` (rows with ``a == b`` or ``i == j`` are
    zero).  This is the candidate-pricing kernel of the SRO-targeted
    generator — M hypothetical configurations priced per numpy pass.
    """
    config = _as_int_configs(config)
    ii = np.asarray(ii)
    jj = np.asarray(jj)
    M = ii.shape[0]
    S = t.n_species
    n_shells = t.n_shells
    aa = config[ii].astype(np.int64)
    bb = config[jj].astype(np.int64)
    shell_of_col = t.shell_of_col.astype(np.int64)
    nbr_i = t.cat_table[ii]                          # (M, Z)
    nbr_j = t.cat_table[jj]
    rows = np.arange(M)
    # Row-wise per-shell neighbor histograms via one flat bincount.
    base = rows[:, None] * (n_shells * S)
    ni = np.bincount((base + shell_of_col * S + config[nbr_i]).reshape(-1),
                     minlength=M * n_shells * S).reshape(M, n_shells, S)
    nj = np.bincount((base + shell_of_col * S + config[nbr_j]).reshape(-1),
                     minlength=M * n_shells * S).reshape(M, n_shells, S)
    D = np.zeros((M, n_shells, S, S), dtype=np.int64)  # lint-api: allow
    # Per-statement indices (row, species) are unique per row, so the
    # fancy-indexed in-place updates never collide within a statement.
    D[rows, :, aa, :] -= ni
    D[rows, :, bb, :] += ni
    D[rows, :, :, aa] -= ni
    D[rows, :, :, bb] += ni
    D[rows, :, bb, :] -= nj
    D[rows, :, aa, :] += nj
    D[rows, :, :, bb] -= nj
    D[rows, :, :, aa] += nj
    hits = nbr_i == jj[:, None]                      # (M, Z)
    if hits.any():
        m = np.bincount(
            (rows[:, None] * n_shells + shell_of_col[None, :])[hits],
            minlength=M * n_shells,
        ).reshape(M, n_shells)
        D[rows, :, aa, bb] += 2 * m
        D[rows, :, bb, aa] += 2 * m
        D[rows, :, aa, aa] -= 2 * m
        D[rows, :, bb, bb] -= 2 * m
    same = (aa == bb) | (ii == jj)
    D[same] = 0
    return D
