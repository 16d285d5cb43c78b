"""Exactness tests for the deep-learning proposals.

The decisive check: a Metropolis chain driven *only* by the learned global
proposal must converge to the exact Boltzmann distribution on a system small
enough to enumerate — that validates the log_q_ratio bookkeeping end to end.
For the VAE, whose density is an estimate carried with the row (DESIGN.md
§12), the check is a z-test of ⟨E⟩ over seeds against enumeration, free and
at fixed composition.
"""

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian
from repro.lattice import composition_counts, one_hot, square_lattice
from repro.nn import MADE, Adam, CategoricalVAE, MADEConfig, VAEConfig
from repro.proposals import FlipProposal, MADEProposal, VAEProposal
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
def ising_4x4():
    return IsingHamiltonian(square_lattice(4))


@pytest.fixture(scope="module")
def trained_vae(ising_4x4):
    """VAE (latent 4, hidden 64) trained 400 steps on 4,096 configurations
    of a flip chain at beta = 0.3, the temperature the chains below sample.

    On-temperature training makes q far from uniform, so a wrong log
    q-ratio shows in ⟨E⟩; fit to uniform data, q would be near uniform and
    the ratio near 0, and the tests could not tell.
    """
    chain = MetropolisSampler(ising_4x4, FlipProposal(), 0.3,
                              np.zeros(16, dtype=np.int8), rng=10)
    chain.run(2_000)
    harvested = []
    chain.run(4 * 4_096, callback=lambda s, _k: harvested.append(s.config.copy()),
              callback_every=4)
    data = one_hot(np.array(harvested), 2)
    model = CategoricalVAE(VAEConfig(n_sites=16, n_species=2, latent_dim=4, hidden=(64,)),
                           rng=3)
    opt = Adam(model.parameters(), lr=3e-3)
    rng = np.random.default_rng(2)
    for _ in range(400):
        model.train_step(data[rng.integers(0, len(data), 64)], opt, rng)
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


#: ⟨E⟩ of the 4x4 Ising model at beta = 0.3 by enumeration: every state,
#: and the 12,870 states with 8 up spins
EXACT_4X4 = {"free": -13.505, "reject": -4.870}


class TestVAEProposal:
    @staticmethod
    def z_of_mean_energy(ham, model, composition, n_samples):
        """Six 16-row teams driven only by the VAE: the z of the seed mean
        of ⟨E⟩ against enumeration, over its seed-to-seed spread
        ("reject" chains start and stay at 8 up spins)."""
        start = np.zeros((16, 16), dtype=np.int8)
        if composition == "reject":
            start[:, ::2] = 1
        means = []
        for seed in range(6):
            team = CanonicalTeam(ham, VAEProposal(model, n_samples, composition),
                                 start, 0.3, rng=seed)
            team.steps(50)
            total = np.zeros(team.n_slots)
            for _ in range(300):
                team.steps(2)
                total += team.energies
            means.append((total / 300).mean())
            if composition == "reject":
                assert (team.configs.sum(axis=1) == 8).all()
        assert team.n_accepted / team.n_steps > 0.2
        means = np.array(means)
        return (means.mean() - EXACT_4X4[composition]) / (means.std(ddof=1) / np.sqrt(len(means)))

    def test_vae_chain_matches_boltzmann(self, ising_4x4, trained_vae):
        """Free decoding, S = 32: |z| < 3 at beta = 0.3."""
        assert abs(self.z_of_mean_energy(ising_4x4, trained_vae, "free", 32)) < 3.0

    def test_vae_chain_matches_boltzmann_at_one_sample(self, ising_4x4, trained_vae):
        """S = 1, where the estimator noise is largest: a kernel that scored
        each candidate and each new current row with fresh draws read a
        bias of +0.29 (z = 5.1) on this setup."""
        assert abs(self.z_of_mean_energy(ising_4x4, trained_vae, "free", 1)) < 3.0

    def test_reject_chain_matches_fixed_composition_enumeration(self, ising_4x4, trained_vae):
        """``"reject"`` at 8/8, S = 32, against the 12,870 states with 8 up
        spins."""
        assert abs(self.z_of_mean_energy(ising_4x4, trained_vae, "reject", 32)) < 3.0

    def test_reject_mode_keeps_composition(self, tiny_ising):
        rng = np.random.default_rng(9)
        cfg = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1], dtype=np.int8)
        model = CategoricalVAE(VAEConfig(n_sites=9, n_species=2, latent_dim=3, hidden=(16,)),
                               rng=3)
        prop = VAEProposal(model)
        for _ in range(10):
            move = prop.propose_many(cfg[None], tiny_ising, rng)
            after = cfg.copy()
            move.apply_row(0, after)
            assert np.array_equal(composition_counts(after, 2), [4, 5])

    def test_cache_invalidate(self, trained_vae, ising_4x4):
        """``invalidate_cache`` drops the pooled candidates, drawn from the
        old weights."""
        prop = VAEProposal(trained_vae, composition="free")
        prop.propose_many(np.zeros((2, 16), dtype=np.int8), ising_4x4, np.random.default_rng(0))
        assert prop._pool.cursor == 2 < prop._pool.size
        prop.invalidate_cache()
        assert prop._pool.size == 0

    def test_bad_composition_mode_raises(self, trained_vae):
        for mode in ("fix-it", "repair", "fixed"):
            with pytest.raises(ValueError):
                VAEProposal(trained_vae, composition=mode)
