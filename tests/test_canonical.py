"""The canonical mode of the block engine (``CanonicalTeam``) against an
independent oracle: ⟨E⟩(β) of the 4×4 Ising model by exact enumeration.

Each seed runs one team whose rows sit at three positive and one negative
inverse temperature; the per-β means over seeds must agree with the exact
value by a z-test on their seed-to-seed spread.  Local flips take the
block engine on both super-step paths; so does a flip/MADE mixture, whose
asymmetric proposal's log q-ratio must enter the acceptance for the answer
to be right.
"""

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian, enumerate_density_of_states
from repro.lattice import square_lattice
from repro.nn import MADE, MADEConfig
from repro.proposals import FlipProposal, MADEProposal, MixtureProposal
from repro.sampling import CanonicalTeam

BETAS = np.array([0.2, 0.44, 0.7, -0.3])
SEEDS = range(8)
MAX_Z = 5.0


@pytest.fixture(scope="module")
def ising():
    return IsingHamiltonian(square_lattice(4))


@pytest.fixture(scope="module")
def exact_mean_energy(ising):
    levels, degens = enumerate_density_of_states(ising)
    log_w = np.log(degens.astype(float))[None, :] - BETAS[:, None] * levels[None, :]
    w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    return (w * levels).sum(axis=1) / w.sum(axis=1)


def mean_energies(ham, proposal, seed, replicas=4, burn=100, sweeps=300):
    """Per-β mean energy of one team: ``replicas`` rows per β from random
    starts, one sweep per advance call, sampled after every sweep."""
    starts = np.random.default_rng(seed).integers(0, 2, size=(BETAS.size * replicas, 16))
    team = CanonicalTeam(ham, proposal, starts.astype(np.int8),
                         np.repeat(BETAS, replicas), rng=seed)
    for _ in range(burn):
        team.steps(ham.n_sites)
    total = np.zeros(team.n_slots)
    for _ in range(sweeps):
        team.steps(ham.n_sites)
        total += team.energies
    assert np.allclose(team.energies, ham.energies(team.configs), atol=1e-9)
    return (total / sweeps).reshape(BETAS.size, replicas).mean(axis=1)


def max_z(samples, exact):
    samples = np.asarray(samples)
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    return float(np.max(np.abs(samples.mean(axis=0) - exact) / se))


def test_block_engine_matches_enumeration(ising, exact_mean_energy, superstep_path):
    z = max_z([mean_energies(ising, FlipProposal(), seed) for seed in SEEDS],
              exact_mean_energy)
    assert z < MAX_Z


def test_mixture_keeps_the_q_ratio(ising, exact_mean_energy):
    """A perturbed MADE proposes far from Boltzmann: only with its log
    q-ratio in the acceptance do the chains sample the right ensemble (with
    the ratio zeroed, this test reads max |z| ≈ 7)."""
    model = MADE(MADEConfig(n_sites=16, n_species=2, hidden=(24,)), rng=5)
    rng = np.random.default_rng(6)
    for p in model.parameters():
        p.value += 0.7 * rng.standard_normal(p.value.shape)
    samples = [
        mean_energies(ising, MixtureProposal([
            (FlipProposal(), 0.5), (MADEProposal(model, composition="free"), 0.5),
        ]), seed, replicas=2, burn=30, sweeps=100)
        for seed in SEEDS
    ]
    assert max_z(samples, exact_mean_energy) < MAX_Z


def test_negative_beta_climbs_and_zero_beta_takes_every_move(ising):
    ground = np.zeros((2, 16), dtype=np.int8)
    team = CanonicalTeam(ising, FlipProposal(), ground, [0.0, -5.0], rng=1)
    team.steps(40)
    assert team.slot_accepted[0] == 40
    assert team.energies[1] > 0 > ising.energy(ground[1])
