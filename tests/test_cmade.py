"""Tests for the conditioned MADE model (``cond_dim > 0``) and its proposal.

The proposal's condition is a constant (a replica's temperature), so a
chain driven by it is an exact independence sampler of ``q(· | cond)`` and
must converge to the exact Boltzmann distribution.
"""

import itertools

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian, enumerate_density_of_states
from repro.lattice import one_hot, square_lattice
from repro.nn import MADE, Adam, MADEConfig
from repro.proposals import MADEProposal
from repro.sampling import MetropolisSampler


def all_one_hot(n_sites, n_species):
    xs = np.array(list(itertools.product(range(n_species), repeat=n_sites)), dtype=np.int8)
    return xs, np.stack([one_hot(x, n_species) for x in xs])


@pytest.fixture(scope="module")
def tiny_ising():
    return IsingHamiltonian(square_lattice(3))


@pytest.fixture(scope="module")
def trained_cmade(tiny_ising):
    """Conditional MADE trained on (config, beta) pairs from two chains."""
    from repro.proposals import FlipProposal

    model = MADE(MADEConfig(n_sites=9, n_species=2, hidden=(64,), cond_dim=1), rng=0)
    opt = Adam(model.parameters(), lr=5e-3)
    data, conds = [], []
    for beta in (0.15, 0.45):
        chain = MetropolisSampler(
            tiny_ising, FlipProposal(), beta, np.zeros(9, dtype=np.int8),
            rng=int(beta * 1000),
        )
        chain.run(2_000)

        def collect(s, _k, beta=beta):
            data.append(one_hot(s.config, 2))
            conds.append([beta])

        chain.run(4_000, callback=collect, callback_every=20)
    data = np.stack(data)
    conds = np.asarray(conds)
    rng = np.random.default_rng(1)
    for _ in range(300):
        idx = rng.integers(0, len(data), 64)
        model.train_step(data[idx], opt, cond=conds[idx])
    return model


class TestConditionalMADEModel:
    def test_normalized_for_every_condition(self, trained_cmade):
        _, oh = all_one_hot(9, 2)
        for beta in (0.1, 0.3, 0.6):
            lp = trained_cmade.log_prob(oh, np.array([beta]))
            assert np.exp(lp).sum() == pytest.approx(1.0, abs=1e-8)

    def test_condition_shifts_distribution(self, trained_cmade):
        """The model must have learned that colder chains sit lower in
        energy: mean sampled energy at beta=0.45 < at beta=0.15."""
        ham = IsingHamiltonian(square_lattice(3))
        rng = np.random.default_rng(2)
        hot = trained_cmade.sample(256, rng, cond=np.array([0.15]))
        cold = trained_cmade.sample(256, rng, cond=np.array([0.45]))
        e_hot = np.mean([ham.energy(c) for c in hot])
        e_cold = np.mean([ham.energy(c) for c in cold])
        assert e_cold < e_hot

    def test_autoregressive_in_x_not_in_cond(self, trained_cmade):
        """Site logits ignore later sites but may all see the condition."""
        base = one_hot(np.array([0, 1, 0, 1, 0, 1, 0, 1, 0], dtype=np.int8), 2)
        cond = np.array([0.3])
        l0 = trained_cmade.logits(base[None], cond)[0]
        # perturbing the last site leaves all other logits unchanged
        pert = base.copy()
        pert[8] = pert[8][::-1]
        l1 = trained_cmade.logits(pert[None], cond)[0]
        assert np.allclose(l0[:8], l1[:8])
        # perturbing the condition changes (at least) the first-site logits
        l2 = trained_cmade.logits(base[None], np.array([0.9]))[0]
        assert not np.allclose(l0, l2)

    def test_sample_log_prob_consistency(self, trained_cmade):
        rng = np.random.default_rng(3)
        cond = np.array([0.3])
        configs, lps = trained_cmade.sample(16, rng, return_log_prob=True, cond=cond)
        oh = np.stack([one_hot(c, 2) for c in configs])
        assert np.allclose(trained_cmade.log_prob(oh, cond), lps, atol=1e-10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MADEConfig(n_sites=4, n_species=2, cond_dim=-1)
        with pytest.raises(ValueError):
            MADEConfig(n_sites=0, n_species=2, cond_dim=1)

    def test_cond_shape_validation(self, trained_cmade):
        _, oh = all_one_hot(3, 2)
        with pytest.raises(ValueError):
            trained_cmade.log_prob(oh[:2].reshape(2, 3, 2), np.zeros((3, 1)))
        with pytest.raises(ValueError, match="conditioned"):
            trained_cmade.log_prob(one_hot(np.zeros((2, 9), dtype=np.int8), 2))  # no cond


class TestConditionalProposal:
    def test_fixed_condition_chain_matches_boltzmann(self, tiny_ising, trained_cmade):
        """State-independent conditioning: exact independence sampler."""
        beta = 0.3
        levels, degens = enumerate_density_of_states(tiny_ising)
        w = np.log(degens) - beta * levels
        w -= w.max()
        p = np.exp(w) / np.exp(w).sum()
        exact_e = float(np.dot(p, levels))
        prop = MADEProposal(trained_cmade, composition="free", cond=[beta])
        sampler = MetropolisSampler(tiny_ising, prop, beta,
                                    np.zeros(9, dtype=np.int8), rng=4)
        sampler.run(800)
        stats = sampler.run(8_000, record_energy_every=2)
        assert stats.energies.mean() == pytest.approx(exact_e, abs=0.45)

    def test_composition_fixed_mode(self, tiny_ising, trained_cmade):
        rng = np.random.default_rng(6)
        cfg = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1], dtype=np.int8)
        prop = MADEProposal(trained_cmade, composition="fixed", cond=[0.3])
        for _ in range(5):
            move = prop.propose_many(cfg[None], tiny_ising, rng)
            after = cfg.copy()
            move.apply_row(0, after)
            assert np.bincount(after, minlength=2).tolist() == [4, 5]

    def test_bad_composition_mode(self, trained_cmade):
        for mode in ("magic", "reject", "repair"):
            with pytest.raises(ValueError):
                MADEProposal(trained_cmade, composition=mode, cond=[0.1])
        with pytest.raises(TypeError):
            MADEProposal(trained_cmade, max_reject_tries=8, cond=[0.1])
        # a condition goes with a conditioned model, and only with one
        with pytest.raises(ValueError):
            MADEProposal(trained_cmade, composition="free")
        with pytest.raises(ValueError):
            MADEProposal(MADE(MADEConfig(n_sites=9, n_species=2, hidden=(8,))),
                         composition="free", cond=[0.1])
        with pytest.raises(ValueError, match="shape"):
            MADEProposal(trained_cmade, composition="free", cond=[0.1, 0.2])
