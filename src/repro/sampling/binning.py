"""Energy binning for flat-histogram sampling.

Two modes:

- **uniform** — ``n_bins`` equal-width bins over ``[e_min, e_max]``; the
  right edge is inclusive so the ground state is never dropped;
- **levels** — one bin per known discrete energy level (exact for small
  Ising/Potts systems, where levels are spaced by the coupling).

Both expose the same interface: :meth:`index` maps an energy to a bin (−1
when outside), :attr:`centers` are the representative energies used by the
thermodynamics post-processing.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_integer

__all__ = ["EnergyGrid", "StackedGrids"]


class EnergyGrid:
    """Energy → bin mapping.

    Use :meth:`uniform` or :meth:`from_levels` instead of the constructor.
    """

    def __init__(self, edges: np.ndarray | None, levels: np.ndarray | None, tol: float):
        self._edges = edges
        self._levels = levels
        self._tol = tol
        if (edges is None) == (levels is None):
            raise ValueError("exactly one of edges/levels must be provided")

    # ------------------------------------------------------------- builders

    @classmethod
    def uniform(cls, e_min: float, e_max: float, n_bins: int) -> "EnergyGrid":
        """Equal-width bins covering ``[e_min, e_max]``."""
        n_bins = check_integer("n_bins", n_bins, minimum=1)
        if not e_max > e_min:
            raise ValueError(f"need e_max > e_min, got [{e_min}, {e_max}]")
        return cls(np.linspace(e_min, e_max, n_bins + 1), None, 0.0)

    @classmethod
    def from_levels(cls, levels, tol: float = 1e-6) -> "EnergyGrid":
        """One bin per discrete energy level (must be sorted-unique-able)."""
        levels = np.unique(np.asarray(levels, dtype=np.float64))
        if levels.size == 0:
            raise ValueError("levels must be non-empty")
        if levels.size > 1 and np.min(np.diff(levels)) <= 2 * tol:
            raise ValueError("levels closer than 2*tol cannot be distinguished")
        return cls(None, levels, float(tol))

    # ------------------------------------------------------------ interface

    @property
    def is_levels(self) -> bool:
        return self._levels is not None

    @property
    def n_bins(self) -> int:
        return len(self._levels) if self.is_levels else len(self._edges) - 1

    @property
    def e_min(self) -> float:
        return float(self._levels[0] if self.is_levels else self._edges[0])

    @property
    def e_max(self) -> float:
        return float(self._levels[-1] if self.is_levels else self._edges[-1])

    @property
    def centers(self) -> np.ndarray:
        """Representative energy per bin."""
        if self.is_levels:
            return self._levels.copy()
        return 0.5 * (self._edges[:-1] + self._edges[1:])

    @property
    def widths(self) -> np.ndarray:
        """Bin widths (levels mode reports the level spacing's lower bound)."""
        if self.is_levels:
            if len(self._levels) == 1:
                return np.array([0.0])
            return np.diff(self._levels, append=self._levels[-1] + (self._levels[-1] - self._levels[-2]))
        return np.diff(self._edges)

    def index(self, energy: float) -> int:
        """Bin index of ``energy``; −1 when outside the grid."""
        if self.is_levels:
            k = int(np.searchsorted(self._levels, energy))
            for cand in (k - 1, k):
                if 0 <= cand < len(self._levels) and abs(self._levels[cand] - energy) <= self._tol:
                    return cand
            return -1
        if energy < self._edges[0] or energy > self._edges[-1]:
            return -1
        k = int(np.searchsorted(self._edges, energy, side="right")) - 1
        return min(k, self.n_bins - 1)  # right edge inclusive

    def index_array(self, energies: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`index`."""
        energies = np.asarray(energies, dtype=np.float64)
        if self.is_levels:
            levels = self._levels
            k = np.searchsorted(levels, energies)
            lo = np.maximum(k - 1, 0)  # preferred candidate, as in index()
            hi = np.minimum(k, len(levels) - 1)
            return np.where(
                np.abs(levels[lo] - energies) <= self._tol, lo,
                np.where(np.abs(levels[hi] - energies) <= self._tol, hi, -1),
            ).astype(np.int64, copy=False)
        out = np.searchsorted(self._edges, energies, side="right") - 1
        out = np.minimum(out, self.n_bins - 1)
        outside = (energies < self._edges[0]) | (energies > self._edges[-1])
        return np.where(outside, -1, out).astype(np.int64)

    def contains(self, energy: float) -> bool:
        return self.index(energy) >= 0

    def subgrid(self, lo_bin: int, hi_bin: int) -> "EnergyGrid":
        """Contiguous sub-range of bins ``[lo_bin, hi_bin]`` as a new grid.

        This is how REWL energy windows are cut from the global grid, so
        window bin centers always align with global bin centers.
        """
        if not 0 <= lo_bin <= hi_bin < self.n_bins:
            raise ValueError(
                f"invalid bin range [{lo_bin}, {hi_bin}] for {self.n_bins} bins"
            )
        if self.is_levels:
            return EnergyGrid(None, self._levels[lo_bin : hi_bin + 1].copy(), self._tol)
        return EnergyGrid(self._edges[lo_bin : hi_bin + 2].copy(), None, 0.0)

    def __repr__(self) -> str:
        kind = "levels" if self.is_levels else "uniform"
        return (
            f"EnergyGrid({kind}, n_bins={self.n_bins}, "
            f"range=[{self.e_min:.6g}, {self.e_max:.6g}])"
        )


class StackedGrids:
    """One bin lookup for rows that belong to different energy windows.

    ``grids[w]`` owns ``rows_per_grid[w]`` consecutive rows.  The windows
    must be :meth:`EnergyGrid.subgrid` cuts of one grid (REWL windows are):
    their edges (or levels) are then exact copies of a common array, so one
    ``searchsorted`` on it, mapped through a per-window table, equals each
    window's own :meth:`EnergyGrid.index_array` — right edge inclusive, level
    tolerance included.  Bins come back *flat*: window ``w``'s bin ``k`` is
    ``offsets[w] + k``, the layout of the windows' concatenated ``ln g``.
    """

    def __init__(self, grids, rows_per_grid):
        first = grids[0]
        self.is_levels = first.is_levels
        self.tol = first._tol
        if any(g.is_levels != self.is_levels or g._tol != self.tol for g in grids):
            raise ValueError("stacked windows must share one grid mode and tolerance")
        marks = [g._levels if self.is_levels else g._edges for g in grids]
        self.marks = np.unique(np.concatenate(marks))
        lo = np.searchsorted(self.marks, [m[0] for m in marks])
        for m, start in zip(marks, lo):
            if not np.array_equal(self.marks[start:start + len(m)], m):
                raise ValueError("stacked windows must be cut from one grid")
        n_bins = np.array([g.n_bins for g in grids])
        self.offsets = np.concatenate([[0], np.cumsum(n_bins)])
        # table[w, m + 1]: flat bin of global mark (edge or level) ``m`` in
        # window ``w``, −1 outside it; column 0 is "no mark".  A uniform
        # window also maps its top edge to its last bin (inclusive right
        # edge); energies above that edge are masked in index_rows.
        table = np.full((len(grids), len(self.marks) + 1), -1, dtype=np.int64)
        for w, g in enumerate(grids):
            table[w, lo[w] + 1:lo[w] + 1 + g.n_bins] = self.offsets[w] + np.arange(g.n_bins)
            if not self.is_levels:
                table[w, lo[w] + 1 + g.n_bins] = self.offsets[w + 1] - 1
        self._table = table.ravel()
        self._row_base = np.repeat(np.arange(len(grids)) * table.shape[1], rows_per_grid)
        self.e_max = np.array([g.e_max for g in grids])
        self._e_max = np.repeat(self.e_max, rows_per_grid)
        # levels: pad with ±inf so both neighbours of any energy exist
        self._padded = np.concatenate([[-np.inf], self.marks, [np.inf]])
        self._sides = np.array([[0], [1]])

    def index_rows(self, energies: np.ndarray) -> np.ndarray:
        """Flat bin of ``energies[r]`` in row ``r``'s window; −1 outside."""
        if self.is_levels:
            # padded indices of the levels on either side of each energy:
            # padded[k[0]] < e <= padded[k[1]]
            k = self.marks.searchsorted(energies) + self._sides
            hit = np.abs(self._padded.take(k) - energies) <= self.tol
            # levels are > 2 tol apart, so at most one side hits; neither
            # hitting sums to column 0, which holds -1
            return self._table.take((k * hit).sum(axis=0) + self._row_base)
        mark = self.marks.searchsorted(energies, side="right")
        flat = self._table.take(mark + self._row_base)
        flat[energies > self._e_max] = -1
        return flat
