"""Tests for the experiment DoS cache format."""

import numpy as np


class TestHeaDosCache:
    def test_cache_round_trip(self, tmp_path, monkeypatch):
        """The on-disk DoS cache format loads back into an identical HeaDos."""
        import repro.experiments.e02_hea_dos as e02

        monkeypatch.setattr(e02, "results_dir", lambda: tmp_path)
        path = e02._cache_path(3, seed=7)
        path.parent.mkdir(parents=True, exist_ok=True)
        n_bins = 10
        ln_g = np.linspace(0.0, 20.0, n_bins)
        visited = np.ones(n_bins, dtype=bool)
        visited[0] = False
        np.savez(
            path, e_lo=-5.0, e_hi=5.0, n_bins=n_bins, ln_g=ln_g,
            visited=visited, span=20.0, steps=1234, rounds=7, residual=0.05,
            n_sites=54, converged=True,
        )
        dos = e02.load_or_run_hea_dos(3, seed=7)
        assert dos.grid.n_bins == n_bins
        assert dos.grid.e_min == -5.0 and dos.grid.e_max == 5.0
        assert np.allclose(dos.ln_g, ln_g)
        assert dos.visited.tolist() == visited.tolist()
        assert dos.steps == 1234 and dos.rounds == 7
        assert dos.converged
        # Convenience views exclude the unvisited bin.
        assert dos.energies.shape == (n_bins - 1,)
        assert np.allclose(dos.values, ln_g[1:])
