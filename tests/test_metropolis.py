"""Statistical correctness tests for the Metropolis sampler."""

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian, enumerate_density_of_states, enumerate_energies
from repro.lattice import random_configuration, square_lattice
from repro.nn import MADE, MADEConfig
from repro.proposals import (
    FlipProposal,
    MADEProposal,
    MixtureProposal,
    NeighborSwapProposal,
    SwapProposal,
)
from repro.sampling import CanonicalTeam, MetropolisSampler


def exact_mean_energy(levels, degens, beta):
    w = np.log(degens) - beta * levels
    w -= w.max()
    p = np.exp(w) / np.exp(w).sum()
    return float(np.dot(p, levels))


def _swap_made_fixed():
    """Swaps mixed with a MADE decoding on the chain's composition.  The
    masked q favours rows that use a species up early, which have a domain
    at the end, so scoring candidates without the mask biases the mean
    energy by ~10 standard errors; the small weights keep MADE moves
    accepted often."""
    model = MADE(MADEConfig(n_sites=16, n_species=2, hidden=(32,)), rng=7)
    rng = np.random.default_rng(8)
    for p in model.parameters():
        p.value += 0.2 * rng.standard_normal(p.value.shape)
    return MixtureProposal([(SwapProposal(), 0.5), (MADEProposal(model, "fixed"), 0.5)])


class TestCanonicalMeans:
    @pytest.mark.parametrize("beta", [0.2, 0.4])
    def test_flip_chain_mean_energy(self, ising_4x4, beta):
        levels, degens = enumerate_density_of_states(ising_4x4)
        exact = exact_mean_energy(levels, degens, beta)
        sampler = MetropolisSampler(
            ising_4x4, FlipProposal(), beta, np.zeros(16, dtype=np.int8), rng=0
        )
        sampler.run(5_000)
        stats = sampler.run(120_000, record_energy_every=10)
        sem = stats.energies.std() / np.sqrt(len(stats.energies) / 20)
        assert stats.energies.mean() == pytest.approx(exact, abs=max(5 * sem, 0.3))

    @pytest.mark.parametrize("make", [
        SwapProposal, NeighborSwapProposal, _swap_made_fixed,
    ], ids=["swap", "nbr_swap", "made_fixed"])
    def test_swap_chain_fixed_composition_mean(self, ising_4x4, make, superstep_path):
        """Canonical (fixed-M) sampling matches fixed-composition
        enumeration: six seeds, each a team of 8 chains, agree with the
        exact mean within 5 standard errors of their spread, on both block
        paths (the C loop draws swap pairs itself)."""
        beta = 0.3
        counts = [8, 8]
        energies = enumerate_energies(ising_4x4, counts=counts)
        w = -beta * energies
        w -= w.max()
        p = np.exp(w) / np.exp(w).sum()
        exact = float(np.dot(p, energies))
        means = []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            configs = np.stack([random_configuration(16, counts, rng=rng) for _ in range(8)])
            team = CanonicalTeam(ising_4x4, make(), configs, beta, rng=seed)
            team.steps(500)
            total = 0.0
            for _ in range(400):
                team.steps(10)
                total += team.energies.mean()
            means.append(total / 400)
        sem = np.std(means, ddof=1) / np.sqrt(len(means))
        assert np.mean(means) == pytest.approx(exact, abs=5 * sem)


class TestMechanics:
    def test_energy_tracking_no_drift(self, hea_small, hea_config):
        sampler = MetropolisSampler(hea_small, SwapProposal(), 5.0, hea_config, rng=0)
        sampler.run(20_000)
        assert sampler.resync_energy() < 1e-7

    def test_zero_beta_accepts_everything_distinct(self, hea_small, hea_config):
        sampler = MetropolisSampler(hea_small, SwapProposal(), 0.0, hea_config, rng=1)
        stats = sampler.run(500)
        assert stats.acceptance_rate == 1.0

    def test_huge_beta_reaches_low_energy(self, ising_4x4):
        sampler = MetropolisSampler(
            ising_4x4, FlipProposal(), 10.0, np.zeros(16, dtype=np.int8), rng=2
        )
        sampler.run(20_000)
        assert sampler.energy == pytest.approx(-32.0)

    def test_callback_invoked(self, ising_4x4):
        sampler = MetropolisSampler(
            ising_4x4, FlipProposal(), 1.0, np.zeros(16, dtype=np.int8), rng=3
        )
        seen = []
        sampler.run(10, callback=lambda s, k: seen.append(k), callback_every=2)
        assert seen == [1, 3, 5, 7, 9]

    def test_record_energy_trace_length(self, ising_4x4):
        sampler = MetropolisSampler(
            ising_4x4, FlipProposal(), 1.0, np.zeros(16, dtype=np.int8), rng=4
        )
        stats = sampler.run(100, record_energy_every=10)
        assert stats.energies.shape == (10,)

    def test_run_sweeps(self, ising_4x4):
        sampler = MetropolisSampler(
            ising_4x4, FlipProposal(), 1.0, np.zeros(16, dtype=np.int8), rng=5
        )
        stats = sampler.run_sweeps(3)
        assert stats.n_steps == 48

    def test_negative_beta_rejected(self, ising_4x4):
        with pytest.raises(ValueError):
            MetropolisSampler(ising_4x4, FlipProposal(), -1.0, np.zeros(16, dtype=np.int8))

    def test_require_canonical_rejects_flip(self, hea_small, hea_config):
        with pytest.raises(ValueError):
            MetropolisSampler(
                hea_small, FlipProposal(), 1.0, hea_config, require_canonical=True
            )

    def test_initial_config_copied(self, ising_4x4):
        cfg = np.zeros(16, dtype=np.int8)
        sampler = MetropolisSampler(ising_4x4, FlipProposal(), 0.1, cfg, rng=6)
        sampler.run(100)
        assert np.all(cfg == 0)

    def test_detailed_balance_two_state(self):
        """Explicit detailed-balance check on a 1D two-site Ising chain:
        empirical visit ratio of (energy) macrostates matches Boltzmann."""
        lat = square_lattice(3, 3)
        ham = IsingHamiltonian(lat)
        beta = 0.35
        sampler = MetropolisSampler(ham, FlipProposal(), beta, np.zeros(9, dtype=np.int8), rng=7)
        sampler.run(2_000)
        visits: dict[float, int] = {}
        for _ in range(60_000):
            sampler.step()
            visits[sampler.energy] = visits.get(sampler.energy, 0) + 1
        levels, degens = enumerate_density_of_states(ham)
        probs = {}
        w = np.log(degens) - beta * levels
        w -= w.max()
        z = np.exp(w).sum()
        for e, wi in zip(levels, np.exp(w) / z):
            probs[float(e)] = wi
        for e, count in visits.items():
            if probs.get(e, 0) > 0.05:
                assert count / 60_000 == pytest.approx(probs[e], rel=0.2)
