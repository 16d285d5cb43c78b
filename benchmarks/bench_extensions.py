"""Benchmarks for the extension subsystems (DESIGN.md §4b).

Not tied to a single paper figure; these keep the extension kernels —
Wolff clusters, WHAM iteration, conditioned MADE proposals, checkpointing —
under performance regression watch alongside the E1-E12 benches.
"""

import numpy as np

from repro.dos import exact_ising_dos_bruteforce, wham
from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.nn import MADE, MADEConfig
from repro.proposals import MADEProposal
from repro.sampling import WolffSampler


def bench_wolff_clusters_near_tc(benchmark, throughput):
    """Cluster flips at the critical point (the baseline's best regime)."""
    ham = IsingHamiltonian(square_lattice(16))
    sampler = WolffSampler(ham, 1.0 / 2.27, np.zeros(256, dtype=np.int8), rng=0)
    sampler.run(50)  # settle cluster sizes
    throughput(20)  # cluster flips per round

    def flip_block():
        sampler.run(20)
        return sampler.n_clusters

    assert benchmark(flip_block) >= 20


def bench_wham_iteration(benchmark):
    """Full WHAM solve on exact 4x4 Ising histograms at 6 temperatures."""
    levels, degens = exact_ising_dos_bruteforce(4)
    rng = np.random.default_rng(0)
    betas = np.linspace(0.1, 0.6, 6)
    ln_g = np.log(degens.astype(np.float64))
    hists = []
    for beta in betas:
        w = ln_g - beta * levels
        w -= w.max()
        p = np.exp(w)
        hists.append(rng.multinomial(100_000, p / p.sum()))
    hists = np.asarray(hists)

    result = benchmark(wham, levels, hists, betas)
    assert result.converged


def bench_cmade_proposal(benchmark):
    """One row of a conditioned global proposal (a pooled conditioned
    candidate and the exact density of the current row)."""
    ham = IsingHamiltonian(square_lattice(4))
    model = MADE(MADEConfig(n_sites=16, n_species=2, hidden=(64,), cond_dim=1), rng=0)
    prop = MADEProposal(model, composition="free", cond=[0.3])
    rng = np.random.default_rng(1)
    cfg = rng.integers(0, 2, 16).astype(np.int8)[None]
    energy = ham.energies(cfg)

    move = benchmark(prop.propose_many, cfg, ham, rng, energy)
    assert move.new_values.shape == (1, 16)


def bench_checkpoint_round_trip(benchmark, tmp_path_factory):
    """Save + restore a running REWL driver (job-resubmission path)."""
    from repro.parallel import REWLConfig, REWLDriver, load_checkpoint, save_checkpoint
    from repro.proposals import FlipProposal
    from repro.sampling import EnergyGrid

    ham = IsingHamiltonian(square_lattice(4))
    grid = EnergyGrid.from_levels(ham.energy_levels())
    driver = REWLDriver(
        hamiltonian=ham, proposal_factory=lambda: FlipProposal(), grid=grid,
        initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(n_windows=2, walkers_per_window=2,
                          exchange_interval=200, seed=0),
    )
    driver.run(max_rounds=2)
    path = tmp_path_factory.mktemp("ckpt") / "rewl.ckpt"

    def round_trip():
        save_checkpoint(driver, path)
        load_checkpoint(driver, path)
        return driver.rounds

    assert benchmark(round_trip) == 2
