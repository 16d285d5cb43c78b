"""Tests for WHAM multi-histogram reweighting."""

import numpy as np
import pytest

from repro.dos import exact_ising_dos_bruteforce, thermodynamics, wham
from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.proposals import FlipProposal
from repro.sampling import CanonicalTeam, EnergyGrid


def synthetic_histograms(levels, degens, betas, n_samples, seed=0):
    """Exact multinomial draws from the canonical distributions."""
    rng = np.random.default_rng(seed)
    ln_g = np.log(degens.astype(np.float64))
    hists = []
    for beta in betas:
        w = ln_g - beta * levels
        w -= w.max()
        p = np.exp(w)
        p /= p.sum()
        hists.append(rng.multinomial(n_samples, p))
    return np.asarray(hists)


class TestWhamExactInputs:
    def test_recovers_ising_dos(self):
        levels, degens = exact_ising_dos_bruteforce(4)
        betas = np.array([0.1, 0.25, 0.4, 0.6])
        hists = synthetic_histograms(levels, degens, betas, 300_000)
        result = wham(levels, hists, betas)
        assert result.converged
        exact_rel = np.log(degens) - np.log(degens).min()
        est = result.ln_g[result.supported]
        # Compare on well-sampled bins only (tails carry shot noise).
        good = result.supported & (hists.sum(axis=0) > 500)
        err = np.abs(
            (result.ln_g[good] - result.ln_g[good][0])
            - (exact_rel[good] - exact_rel[good][0])
        )
        assert err.max() < 0.1

    def test_thermodynamics_from_wham_match(self):
        levels, degens = exact_ising_dos_bruteforce(4)
        betas = np.array([0.2, 0.35, 0.5])
        hists = synthetic_histograms(levels, degens, betas, 400_000, seed=1)
        result = wham(levels, hists, betas)
        good = result.supported
        tab_est = thermodynamics(levels[good], result.ln_g[good], [2.5, 3.5])
        tab_ref = thermodynamics(levels, np.log(degens), [2.5, 3.5])
        assert np.allclose(tab_est.internal_energy, tab_ref.internal_energy, atol=0.2)

    def test_single_run_reduces_to_boltzmann_inversion(self):
        """K = 1: ln g(E) = ln H(E) + beta·E up to a constant."""
        levels, degens = exact_ising_dos_bruteforce(4)
        beta = 0.3
        hists = synthetic_histograms(levels, degens, [beta], 500_000, seed=2)
        result = wham(levels, hists, [beta])
        good = result.supported & (hists[0] > 1_000)
        expected = np.log(hists[0, good]) + beta * levels[good]
        expected -= expected.min()
        est = result.ln_g[good] - result.ln_g[good].min()
        assert np.allclose(est, expected, atol=0.02)

    def test_unvisited_bins_minus_inf(self):
        energies = np.array([0.0, 1.0, 2.0])
        hists = np.array([[10, 0, 5]])
        result = wham(energies, hists, [1.0])
        assert result.ln_g[1] == -np.inf
        assert result.supported.tolist() == [True, False, True]


class TestWhamFromRealChains:
    def test_wham_agrees_with_enumeration_from_mc_runs(self):
        """End-to-end: Metropolis chains -> histograms -> WHAM -> exact DoS."""
        ham = IsingHamiltonian(square_lattice(4))
        levels, degens = exact_ising_dos_bruteforce(4)
        grid = EnergyGrid.from_levels(levels)
        betas = [0.15, 0.3, 0.5]
        hists = np.zeros((len(betas), grid.n_bins), dtype=np.int64)
        # one chain per beta: the rows of one team, observed after every step
        team = CanonicalTeam(ham, FlipProposal(), np.zeros((len(betas), 16), dtype=np.int8),
                             betas, rng=0)
        team.steps(3_000)
        rows = np.arange(len(betas))
        for _ in range(60_000):
            team.steps(1)
            hists[rows, grid.index_array(team.energies)] += 1
        result = wham(grid.centers, hists, betas)
        assert result.converged
        good = result.supported & (hists.sum(axis=0) > 300)
        exact_rel = np.log(degens)
        err = np.abs(
            (result.ln_g[good] - result.ln_g[good][0])
            - (exact_rel[good] - exact_rel[good][0])
        )
        assert err.max() < 0.25


class TestWhamValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            wham([0.0, 1.0], np.zeros((2, 3)), [0.1, 0.2])

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            wham([0.0, 1.0], np.array([[-1, 2]]), [0.1])

    def test_empty_run(self):
        with pytest.raises(ValueError):
            wham([0.0, 1.0], np.array([[0, 0]]), [0.1])

    def test_not_1d_energies(self):
        with pytest.raises(ValueError):
            wham(np.zeros((2, 2)), np.zeros((1, 4)), [0.1])

    def test_nonconvergence_reported(self):
        levels, degens = exact_ising_dos_bruteforce(4)
        hists = synthetic_histograms(levels, degens, [0.1, 0.5], 10_000, seed=3)
        result = wham(levels, hists, [0.1, 0.5], max_iterations=2)
        assert not result.converged
        assert result.n_iterations == 2
