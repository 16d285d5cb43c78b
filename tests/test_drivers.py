"""The sampler drivers over the block engine against exact enumeration.

``MetropolisSampler`` (a one-row ``CanonicalTeam``), ``ParallelTempering``
(a team whose rows are the β ladder), ``WangLandauSampler`` (a one-row
Wang–Landau team) and ``MulticanonicalSampler`` (a one-row Wang–Landau team
with a frozen ``ln g`` and ``ln f = 0``) are checked against the 4×4 Ising
model, whose 65,536 states are enumerated.  Each quantity is averaged over
independent seeds and must agree with the exact value by a z-test on the
seed-to-seed spread (max |z| < 5), on both super-step paths — the flip/MADE
mixture cases included: their teams step in pooled blocks.
"""

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.nn import MADE, MADEConfig
from repro.proposals import FlipProposal, MADEProposal, MixtureProposal
from repro.sampling import (
    EnergyGrid,
    MetropolisSampler,
    MulticanonicalSampler,
    ParallelTempering,
    WangLandauSampler,
    WLConfig,
)

MAX_Z = 5.0
BETAS = np.array([0.2, 0.44, 0.7])


@pytest.fixture(scope="module")
def ising():
    return IsingHamiltonian(square_lattice(4))


@pytest.fixture(scope="module")
def exact(ising):
    """Every state's energy and |M|, and the levels with ln g and ⟨|M|⟩(E)."""
    states = ((np.arange(2 ** 16)[:, None] >> np.arange(16)) & 1).astype(np.int8)
    energies = ising.energies(states)
    abs_m = np.abs(ising.magnetizations(states))
    levels, inverse, degens = np.unique(np.round(energies, 9), return_inverse=True,
                                        return_counts=True)
    mean_abs_m = np.bincount(inverse, weights=abs_m) / degens
    return levels, np.log(degens.astype(float)), mean_abs_m


def mean_energy(exact, beta):
    levels, ln_g, _ = exact
    w = np.exp(ln_g - beta * levels - np.max(ln_g - beta * levels))
    return float((w * levels).sum() / w.sum())


def assert_within(samples, expected):
    """Seed means within ``MAX_Z`` standard errors of ``expected``; an
    exact draw (zero spread, e.g. |M| in the ground state) must hit it."""
    samples = np.asarray(samples)
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    gap = np.abs(samples.mean(axis=0) - expected)
    assert np.all(gap <= MAX_Z * se + 1e-9), gap / np.maximum(se, 1e-12)


def metropolis_means(ham, proposal_factory, betas, seed, burn=500, steps=4_000):
    means = []
    for k, beta in enumerate(betas):
        sampler = MetropolisSampler(ham, proposal_factory(), beta,
                                    np.zeros(16, dtype=np.int8), rng=100 * seed + k)
        sampler.run(burn)
        means.append(sampler.run(steps, record_energy_every=16).energies.mean())
    assert sampler.resync_energy() < 1e-9
    return means


def test_metropolis_matches_enumeration(ising, exact, superstep_path):
    samples = [metropolis_means(ising, FlipProposal, BETAS, seed) for seed in range(8)]
    assert_within(samples, [mean_energy(exact, b) for b in BETAS])


def perturbed_mixture():
    """A factory of flip/MADE mixtures whose MADE is strongly perturbed: it
    proposes far from any target, so an answer is right only with its log
    q-ratio in the acceptance."""
    model = MADE(MADEConfig(n_sites=16, n_species=2, hidden=(24,)), rng=5)
    rng = np.random.default_rng(6)
    for p in model.parameters():
        p.value += 2.0 * rng.standard_normal(p.value.shape)
    return lambda: MixtureProposal([
        (FlipProposal(), 0.5), (MADEProposal(model, composition="free"), 0.5),
    ])


def test_metropolis_mixture_keeps_the_q_ratio(ising, exact, superstep_path):
    """A flip/MADE mixture steps in pooled blocks (with the q-ratio zeroed,
    this test reads |z| ≈ 18)."""
    mixture = perturbed_mixture()
    samples = [metropolis_means(ising, mixture, [0.2], seed, burn=200, steps=1_500)
               for seed in range(8)]
    assert_within(samples, [mean_energy(exact, 0.2)])


def centred(ln_g):
    return ln_g - ln_g.mean()


def single_walker(ham, levels, proposal, seed, config):
    start = np.random.default_rng(seed).integers(0, 2, 16).astype(np.int8)
    return WangLandauSampler(hamiltonian=ham, proposal=proposal,
                             grid=EnergyGrid.from_levels(levels),
                             initial_config=start, rng=seed, config=config)


def test_wang_landau_matches_enumeration(ising, exact, superstep_path):
    """A single walker's ln g from scratch to ln f = 2e-3.  A finite ln f
    leaves a bias of about a quarter of the seed spread at the end levels,
    so ln f is small enough for the z-test (groups of 8 seeds measured max
    |z| between 1.2 and 4.1 when this was written)."""
    levels, ln_g, _ = exact
    samples = []
    for seed in range(8):
        res = single_walker(ising, levels, FlipProposal(), seed,
                            WLConfig(ln_f_final=2e-3)).run()
        assert res.converged and res.visited.all()
        samples.append(centred(res.ln_g))
    assert_within(samples, centred(ln_g))


def test_wang_landau_mixture_keeps_the_q_ratio(ising, exact, superstep_path):
    """The exact table is a fixed point of the walk: started on it, after a
    burn-in at ln f = 0, 4,000 steps at ln f = 2e-3 move ln g by noise
    only.  The mixture steps in pooled blocks; with the q-ratio zeroed the
    walk is not flat and this test reads |z| ≈ 26."""
    levels, ln_g, _ = exact
    mixture = perturbed_mixture()
    samples = []
    for seed in range(8):
        wl = single_walker(ising, levels, mixture(), seed, WLConfig())
        wl.ln_g[:] = ln_g
        wl.ln_f = 0.0
        wl.steps(1_000)
        wl.ln_f = 2e-3
        wl.steps(4_000)
        assert wl.n_steps == wl.histogram.sum() == 5_000
        samples.append(centred(wl.ln_g))
    assert_within(samples, centred(ln_g))


def test_every_tempering_rung_matches_enumeration(ising, exact, superstep_path):
    ladder = np.array([0.2, 0.3, 0.44, 0.6, 0.8])
    samples = []
    for seed in range(8):
        starts = np.random.default_rng(seed).integers(0, 2, (ladder.size, 16))
        pt = ParallelTempering(ising, FlipProposal(), ladder, starts.astype(np.int8),
                               seed=seed)
        res = pt.run(n_rounds=300, steps_per_round=16)
        assert res.exchange_accepts.sum() > 0
        samples.append(res.energies[50:].mean(axis=0))
    np.testing.assert_allclose(pt.team.energies, ising.energies(pt.team.configs),
                               atol=1e-9)
    assert_within(samples, [mean_energy(exact, b) for b in ladder])


def test_multicanonical_refines_ln_g_and_reads_observables(ising, exact, superstep_path):
    """Started from a perturbed ln g, the production histogram corrects it
    to the exact one, and the per-level ⟨|M|⟩ matches enumeration.  A run
    must be several round trips of the energy range long: at 12 k steps
    from the ground state the start still shows (|z| ≈ 5.5)."""
    levels, ln_g, mean_abs_m = exact
    grid = EnergyGrid.from_levels(levels)
    rough = ln_g + np.random.default_rng(0).normal(0.0, 0.5, ln_g.size)
    refined, abs_m = [], []
    for seed in range(8):
        start = np.random.default_rng(seed).integers(0, 2, 16).astype(np.int8)
        muca = MulticanonicalSampler(
            ising, FlipProposal(), grid, rough, start, rng=seed,
            observables={"abs_m": lambda c, e: abs(ising.magnetization(c))},
        )
        res = muca.run(20_000, measure_every=10)
        lg = res.refined_ln_g()
        refined.append(lg - np.logaddexp.reduce(lg) + 16 * np.log(2))
        abs_m.append(res.observable_means["abs_m"])
    assert_within(refined, ln_g)
    assert_within(abs_m, mean_abs_m)


def test_multicanonical_leaves_ln_g_bit_identical(ising, exact):
    levels, ln_g, _ = exact
    frozen = ln_g + 0.25
    before = frozen.tobytes()
    muca = MulticanonicalSampler(ising, FlipProposal(), EnergyGrid.from_levels(levels),
                                 frozen, np.zeros(16, dtype=np.int8), rng=3)
    res = muca.run(2_000, measure_every=3)
    assert frozen.tobytes() == before
    assert muca.team.ln_g.tobytes() == before
    assert res.ln_g.tobytes() == before
    assert res.histogram.sum() == 2_000 // 3
    assert muca.n_steps == 2_000


def test_run_cadence_matches_the_step_loop(ising):
    """Mixed record and callback strides cut the run at both marks: the
    trace and the callback indices are those of a one-step-at-a-time loop."""
    sampler = MetropolisSampler(ising, FlipProposal(), 0.4, np.zeros(16, dtype=np.int8),
                                rng=0)
    seen = []

    def callback(s, k):
        seen.append((k, s.total_steps))

    stats = sampler.run(17, record_energy_every=3, callback=callback, callback_every=5)
    assert stats.energies.shape == (5,)
    assert stats.n_steps == 17
    assert seen == [(4, 5), (9, 10), (14, 15)]
    assert sampler.total_steps == 17
