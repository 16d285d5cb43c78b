"""Tests for EnergyGrid (uniform and level-based binning)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling import EnergyGrid
from repro.sampling.binning import StackedGrids


class TestUniformGrid:
    def test_basic_mapping(self):
        g = EnergyGrid.uniform(0.0, 10.0, 5)
        assert g.n_bins == 5
        assert g.index(0.0) == 0
        assert g.index(1.999) == 0
        assert g.index(2.0) == 1
        assert g.index(9.999) == 4

    def test_right_edge_inclusive(self):
        g = EnergyGrid.uniform(0.0, 10.0, 5)
        assert g.index(10.0) == 4

    def test_outside_returns_minus_one(self):
        g = EnergyGrid.uniform(0.0, 10.0, 5)
        assert g.index(-0.001) == -1
        assert g.index(10.001) == -1
        assert not g.contains(11.0)

    def test_centers_and_widths(self):
        g = EnergyGrid.uniform(0.0, 10.0, 5)
        assert np.allclose(g.centers, [1, 3, 5, 7, 9])
        assert np.allclose(g.widths, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyGrid.uniform(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            EnergyGrid.uniform(0.0, 1.0, 0)

    @given(st.floats(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_index_array_matches_scalar(self, e):
        g = EnergyGrid.uniform(-50.0, 50.0, 17)
        assert g.index_array(np.array([e]))[0] == g.index(e)


class TestLevelsGrid:
    def test_exact_levels(self):
        g = EnergyGrid.from_levels([-4.0, 0.0, 4.0])
        assert g.n_bins == 3
        assert g.index(-4.0) == 0
        assert g.index(0.0) == 1
        assert g.index(4.0) == 2

    def test_tolerance(self):
        g = EnergyGrid.from_levels([-4.0, 0.0, 4.0], tol=1e-6)
        assert g.index(-4.0 + 1e-7) == 0
        assert g.index(-3.9) == -1

    def test_duplicate_levels_deduplicated(self):
        g = EnergyGrid.from_levels([0.0, 0.0, 1.0])
        assert g.n_bins == 2

    def test_too_close_levels_raise(self):
        with pytest.raises(ValueError):
            EnergyGrid.from_levels([0.0, 1e-8], tol=1e-6)

    def test_index_array_levels(self):
        g = EnergyGrid.from_levels([-2.0, 0.0, 2.0])
        out = g.index_array(np.array([-2.0, -1.0, 0.0, 2.0, 3.0]))
        assert out.tolist() == [0, -1, 1, 2, -1]

    def test_empty_levels_raise(self):
        with pytest.raises(ValueError):
            EnergyGrid.from_levels([])


class TestSubgrid:
    def test_uniform_subgrid_alignment(self):
        g = EnergyGrid.uniform(0.0, 10.0, 10)
        sub = g.subgrid(2, 5)
        assert sub.n_bins == 4
        assert np.allclose(sub.centers, g.centers[2:6])

    def test_levels_subgrid_alignment(self):
        g = EnergyGrid.from_levels([0.0, 1.0, 2.0, 3.0])
        sub = g.subgrid(1, 2)
        assert np.allclose(sub.centers, [1.0, 2.0])

    def test_invalid_range_raises(self):
        g = EnergyGrid.uniform(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            g.subgrid(2, 1)
        with pytest.raises(ValueError):
            g.subgrid(0, 4)

    def test_exactly_one_mode_enforced(self):
        with pytest.raises(ValueError):
            EnergyGrid(None, None, 0.0)

    def test_repr(self):
        assert "uniform" in repr(EnergyGrid.uniform(0, 1, 2))
        assert "levels" in repr(EnergyGrid.from_levels([0.0, 1.0]))


class TestStackedGrids:
    """The campaign-wide lookup must equal each window's own index_array."""

    CUTS = [(0, 7), (4, 11), (8, 15), (2, 3)]  # overlapping, out of order
    ROWS = [3, 1, 4, 2]

    def _check(self, grid, energies):
        windows = [grid.subgrid(lo, hi) for lo, hi in self.CUTS]
        stacked = StackedGrids(windows, self.ROWS)
        n_rows = sum(self.ROWS)
        owner = np.repeat(np.arange(len(windows)), self.ROWS)
        for e in energies:
            flat = stacked.index_rows(np.full(n_rows, e))
            for r in range(n_rows):
                w = owner[r]
                own = int(windows[w].index_array(np.array([e]))[0])
                want = -1 if own < 0 else stacked.offsets[w] + own
                assert flat[r] == want, (e, r, w)
        # every row at once, each with a different energy
        mixed = np.resize(np.asarray(energies, dtype=np.float64), n_rows)
        flat = stacked.index_rows(mixed)
        for r in range(n_rows):
            own = int(windows[owner[r]].index_array(mixed[r:r + 1])[0])
            assert flat[r] == (-1 if own < 0 else stacked.offsets[owner[r]] + own)

    def test_uniform_matches_per_window_lookup(self):
        grid = EnergyGrid.uniform(-1.3, 2.9, 16)
        edges = np.linspace(-1.3, 2.9, 17)  # every window edge, both global ends
        nudged = np.concatenate([np.nextafter(edges, -np.inf),
                                 np.nextafter(edges, np.inf)])
        inside = 0.5 * (edges[:-1] + edges[1:])
        outside = [-1.3 - 1e-9, -50.0, 2.9 + 1e-9, 50.0]
        self._check(grid, np.concatenate([edges, nudged, inside, outside]))

    def test_levels_match_per_window_lookup(self):
        levels = np.arange(16) * 4.0 - 32.0
        tol = 1e-6
        grid = EnergyGrid.from_levels(levels, tol=tol)
        shifts = [0.0, 0.5 * tol, -0.5 * tol, 2 * tol, -2 * tol, 1.7, -1.7]
        energies = np.concatenate([levels + s for s in shifts] + [[-99.0, 99.0]])
        self._check(grid, energies)

    def test_offsets_follow_the_window_widths(self):
        grid = EnergyGrid.uniform(0.0, 1.0, 16)
        stacked = StackedGrids([grid.subgrid(lo, hi) for lo, hi in self.CUTS],
                               self.ROWS)
        assert stacked.offsets.tolist() == [0, 8, 16, 24, 26]

    def test_windows_of_different_grids_rejected(self):
        a = EnergyGrid.uniform(0.0, 1.0, 8).subgrid(0, 3)
        b = EnergyGrid.uniform(0.0, 1.0, 7).subgrid(2, 5)
        with pytest.raises(ValueError, match="cut from one grid"):
            StackedGrids([a, b], [1, 1])
        c = EnergyGrid.from_levels([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="one grid mode"):
            StackedGrids([a, c], [1, 1])
