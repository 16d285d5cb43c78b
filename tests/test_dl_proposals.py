"""Exactness tests for the deep-learning proposals.

The decisive check: a Metropolis chain driven *only* by the learned global
proposal must converge to the exact Boltzmann distribution on a system small
enough to enumerate — that validates the log_q_ratio bookkeeping end to end.
"""

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian
from repro.lattice import composition_counts, one_hot, square_lattice
from repro.nn import MADE, Adam, CategoricalVAE, MADEConfig, VAEConfig
from repro.proposals import FlipProposal, MADEProposal, SwapProposal, VAEProposal
from repro.proposals.composition import repair_composition
from repro.sampling import CanonicalTeam, MetropolisSampler


@pytest.fixture(scope="module")
def tiny_ising():
    """3x3 Ising — 512 states, exactly enumerable."""
    return IsingHamiltonian(square_lattice(3))


@pytest.fixture(scope="module")
def trained_made(tiny_ising):
    """MADE trained on samples from the target temperature (beta = 0.3).

    An independence sampler mixes well exactly when its q covers the
    target; training on on-temperature data is what the DeepThermo loop
    does, and it makes the statistical chain test sharp.
    """
    rng = np.random.default_rng(0)
    beta = 0.3
    chain = MetropolisSampler(
        tiny_ising, FlipProposal(), beta, np.zeros(9, dtype=np.int8), rng=10
    )
    chain.run(2_000)
    harvested = []

    def collect(s, _k):
        harvested.append(one_hot(s.config, 2))

    chain.run(5_120, callback=collect, callback_every=20)
    data = np.stack(harvested)
    model = MADE(MADEConfig(n_sites=9, n_species=2, hidden=(64,)), rng=1)
    opt = Adam(model.parameters(), lr=5e-3)
    for _ in range(250):
        idx = rng.integers(0, len(data), 64)
        model.train_step(data[idx], opt)
    return model


@pytest.fixture(scope="module")
def trained_vae(tiny_ising):
    """VAE trained on samples from the target temperature (beta = 0.25).

    On-temperature training makes q far from uniform, so the chain test
    below fails when the log q-ratio is dropped; fit to uniform data, q
    would be near uniform and the ratio near 0, and the test could not
    tell.
    """
    rng = np.random.default_rng(2)
    chain = MetropolisSampler(
        tiny_ising, FlipProposal(), 0.25, np.zeros(9, dtype=np.int8), rng=10
    )
    chain.run(2_000)
    harvested = []
    chain.run(5_120, callback=lambda s, _k: harvested.append(one_hot(s.config, 2)),
              callback_every=20)
    data = np.stack(harvested)
    model = CategoricalVAE(VAEConfig(n_sites=9, n_species=2, latent_dim=3, hidden=(32,)), rng=3)
    opt = Adam(model.parameters(), lr=5e-3)
    for _ in range(150):
        idx = rng.integers(0, 256, 64)
        model.train_step(data[idx], opt, rng)
    return model


def exact_boltzmann_energy(ham, beta):
    from repro.hamiltonians import enumerate_density_of_states

    levels, degens = enumerate_density_of_states(ham)
    w = np.log(degens) - beta * levels
    w -= w.max()
    p = np.exp(w) / np.exp(w).sum()
    return float(np.dot(p, levels)), levels, p


class TestMADEProposalExactness:
    def test_made_chain_matches_boltzmann(self, tiny_ising, trained_made):
        """16 chains driven only by the MADE proposal, stepped as one team,
        reproduce <E> at beta=0.3: the mean over chains must lie within 0.35
        of exact.  One 6,000-step chain's mean spreads by ~0.18 from seed to
        seed, too wide for this band on a single chain."""
        beta = 0.3
        exact_e, _, _ = exact_boltzmann_energy(tiny_ising, beta)
        prop = MADEProposal(trained_made, composition="free")
        team = CanonicalTeam(tiny_ising, prop, np.zeros((16, 9), dtype=np.int8), beta, rng=4)
        team.steps(250)
        accepted = team.n_accepted
        total = np.zeros(team.n_slots)
        for _ in range(1500):
            team.steps(2)
            total += team.energies
        assert (total / 1500).mean() == pytest.approx(exact_e, abs=0.35)
        assert (team.n_accepted - accepted) / (3000 * team.n_slots) > 0.05

    def test_fixed_mode_keeps_composition(self, tiny_ising, trained_made):
        rng = np.random.default_rng(5)
        cfg = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1], dtype=np.int8)
        prop = MADEProposal(trained_made, composition="fixed")
        for _ in range(10):
            move = prop.propose_many(cfg[None], tiny_ising, rng)
            assert move.valid is None
            after = cfg.copy()
            move.apply_row(0, after)
            assert np.array_equal(composition_counts(after, 2), [4, 5])

    def test_delta_energy_correct(self, tiny_ising, trained_made):
        rng = np.random.default_rng(6)
        cfg = rng.integers(0, 2, 9).astype(np.int8)
        e0 = tiny_ising.energy(cfg)
        move = MADEProposal(trained_made, composition="free").propose_many(
            cfg[None], tiny_ising, rng, current_energies=np.array([e0])
        )
        after = cfg.copy()
        move.apply_row(0, after)
        assert tiny_ising.energy(after) == pytest.approx(e0 + move.delta_energies[0])

    def test_log_q_ratio_exact(self, tiny_ising, trained_made):
        """MADE's reported ratio equals directly evaluated log probs."""
        rng = np.random.default_rng(7)
        cfg = rng.integers(0, 2, 9).astype(np.int8)
        move = MADEProposal(trained_made, composition="free").propose_many(
            cfg[None], tiny_ising, rng, current_energies=np.zeros(1)
        )
        after = cfg.copy()
        move.apply_row(0, after)
        lq_old = trained_made.log_prob(one_hot(cfg, 2)[None])[0]
        lq_new = trained_made.log_prob(one_hot(after, 2)[None])[0]
        assert move.log_q_ratios[0] == pytest.approx(lq_old - lq_new, abs=1e-10)


class TestVAEProposal:
    def test_vae_chain_matches_boltzmann(self, tiny_ising, trained_vae):
        """16 chains driven only by the VAE proposal, stepped as one team (one
        batched IWAE pass per step), reproduce <E> at beta=0.25: the mean over
        chains must lie within 0.6 of exact.  A single 3,000-step chain's
        mean spreads by 0.7-0.9 from seed to seed, too wide for this band.
        With the log q-ratio zeroed the chains read ~-16 against -6.7."""
        beta = 0.25
        exact_e, _, _ = exact_boltzmann_energy(tiny_ising, beta)
        prop = VAEProposal(trained_vae, n_marginal_samples=64, composition="free")
        team = CanonicalTeam(tiny_ising, prop, np.zeros((16, 9), dtype=np.int8), beta, rng=8)
        team.steps(100)
        total = np.zeros(team.n_slots)
        for _ in range(500):
            team.steps(2)
            total += team.energies
        assert (total / 500).mean() == pytest.approx(exact_e, abs=0.6)

    def test_repair_mode_keeps_composition(self, tiny_ising, trained_vae):
        rng = np.random.default_rng(9)
        cfg = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1], dtype=np.int8)
        prop = VAEProposal(trained_vae, composition="repair")
        for _ in range(10):
            move = prop.propose_many(cfg[None], tiny_ising, rng)
            assert move.valid is None
            after = cfg.copy()
            move.apply_row(0, after)
            assert np.array_equal(composition_counts(after, 2), [4, 5])

    def test_cache_invalidate(self, trained_vae):
        prop = VAEProposal(trained_vae, composition="free")
        prop._logq_cache[b"x"] = 1.0
        prop.invalidate_cache()
        assert not prop._logq_cache

    def test_bad_composition_mode_raises(self, trained_vae):
        with pytest.raises(ValueError):
            VAEProposal(trained_vae, composition="fix-it")


class TestCompositionHelpers:
    def test_repair_reaches_target(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            r = np.random.default_rng(seed)
            cfg = r.integers(0, 3, 12).astype(np.int8)
            target = np.array([4, 4, 4])
            fixed = repair_composition(cfg, target, rng)
            assert np.array_equal(composition_counts(fixed, 3), target)

    def test_repair_is_minimal_when_already_valid(self):
        rng = np.random.default_rng(1)
        cfg = np.array([0, 1, 2, 0, 1, 2], dtype=np.int8)
        fixed = repair_composition(cfg, np.array([2, 2, 2]), rng)
        assert np.array_equal(fixed, cfg)

    def test_repair_wrong_total_raises(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            repair_composition(np.array([0, 1]), np.array([2, 2]), rng)

    def test_repair_does_not_mutate_input(self):
        rng = np.random.default_rng(3)
        cfg = np.array([0, 0, 0, 1], dtype=np.int8)
        snap = cfg.copy()
        repair_composition(cfg, np.array([2, 2]), rng)
        assert np.array_equal(cfg, snap)
