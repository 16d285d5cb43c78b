"""E9 bench (Table 3): the calibration kernels behind the throughput table.

These host-side measurements are the inputs the machine model prices; the
benchmark records them so throughput regressions are caught.  The
``wl_steps_scalar`` / ``wl_steps_batched`` pair measures the end-to-end
Wang-Landau stepping speedup delivered by the batched multi-walker mode
(``WLConfig(batch_size=K)``) — the headline number of the kernels layer.
"""

import numpy as np

from repro.nn import MADE, MADEConfig
from repro.proposals import FlipProposal, MADEProposal, SwapProposal
from repro.sampling import EnergyGrid, MetropolisSampler, WLConfig, make_wang_landau


def _made_proposal(hea):
    """Small MADE proposal over the 54-site NbMoTaW system.

    ``composition="free"``: every pool row is a candidate and carries its
    energy, so the scalar/batched pair isolates the per-call overhead of
    handing out 1 row against 8.
    """
    model = MADE(MADEConfig(n_sites=hea.n_sites, n_species=hea.n_species,
                            hidden=(64,)), rng=0)
    return MADEProposal(model, composition="free")


def bench_delta_energy_swap(benchmark, hea, hea_config, throughput):
    """O(z) incremental ΔE — the single hottest kernel in the system."""
    rng = np.random.default_rng(0)
    ii = rng.integers(0, hea.n_sites, 1_000)
    jj = rng.integers(0, hea.n_sites, 1_000)
    k = [0]
    throughput(1)  # one ΔE evaluation per round

    def one():
        k[0] = (k[0] + 1) % 1_000
        return hea.delta_energy_swap(hea_config, int(ii[k[0]]), int(jj[k[0]]))

    benchmark(one)


def bench_delta_energy_swap_many(benchmark, hea, hea_config, throughput):
    """Multi-walker ΔE: one swap per row of a (B, n_sites) config batch."""
    B = 512
    rng = np.random.default_rng(3)
    configs = np.tile(hea_config, (B, 1))
    ii = rng.integers(0, hea.n_sites, B)
    jj = rng.integers(0, hea.n_sites, B)
    throughput(B)

    out = benchmark(hea.delta_energy_swap_many, configs, ii, jj)
    assert out.shape == (B,)


def bench_metropolis_steps(benchmark, hea, hea_config, throughput):
    """End-to-end Metropolis step throughput (Table 3 calibration row)."""
    sampler = MetropolisSampler(hea, SwapProposal(), 5.0, hea_config, rng=2)
    throughput(1_000)

    def block():
        sampler.run(1_000)
        return sampler.total_steps

    assert benchmark(block) >= 1_000


def bench_energies(benchmark, hea, hea_config, throughput):
    """Batched full-energy evaluation (DL-proposal re-scoring path)."""
    configs = np.stack([hea_config] * 64)
    throughput(64)

    out = benchmark(hea.energies, configs)
    assert out.shape == (64,)


#: Rows per timed round of the two DL benches: one pool block (DESIGN.md
#: §12), so every round pays exactly one refill whatever the round count.
_DL_ROWS_PER_ROUND = 1024


def bench_dl_propose_scalar(benchmark, hea, hea_config, throughput):
    """Per-walker DL proposal calls: 1024 one-row ``propose_many`` calls,
    one pool row each.

    Times **amortised pool draws**: candidates come from the proposal's
    1024-row pool, so a round is 1024 hand-outs plus the one refill they
    consume (one ``model.sample`` + one ``energies`` over the block).  The
    batch_size=1 reference for ``bench_dl_propose_batched``; steps/s counts
    proposals, directly comparable between the two.
    """
    prop = _made_proposal(hea)
    rng = np.random.default_rng(7)
    config = hea_config[None]
    e0 = hea.energies(config)
    # first refill (buffer allocation, lazy tables) outside the clock
    prop.propose_many(config, hea, rng, current_energies=e0)
    throughput(_DL_ROWS_PER_ROUND)

    def block():
        moves = [
            prop.propose_many(config, hea, rng, current_energies=e0)
            for _ in range(_DL_ROWS_PER_ROUND)
        ]
        return len(moves)

    assert benchmark(block) == _DL_ROWS_PER_ROUND


def bench_dl_propose_batched(benchmark, hea, hea_config, throughput):
    """Team-batched DL proposal: 128 ``propose_many`` calls of 8 rows.

    Times **amortised pool draws**, like the scalar bench: each call hands
    out 8 consecutive pool rows with the log q and energy they carry and
    looks up the cached current ``log q``; a round consumes, and so pays
    for, exactly one refill.
    """
    prop = _made_proposal(hea)
    rng = np.random.default_rng(7)
    B = 8
    configs = np.tile(hea_config, (B, 1))
    energies = hea.energies(configs)
    # first refill (buffer allocation, lazy tables) outside the clock
    prop.propose_many(configs, hea, rng, current_energies=energies)
    throughput(_DL_ROWS_PER_ROUND)

    def block():
        rows = 0
        for _ in range(_DL_ROWS_PER_ROUND // B):
            rows += prop.propose_many(
                configs, hea, rng, current_energies=energies
            ).batch_size
        return rows

    assert benchmark(block) == _DL_ROWS_PER_ROUND


def bench_wl_steps_scalar(benchmark, ising_4x4, throughput):
    """Single-walker Wang-Landau stepping (the batch_size=1 reference): a
    one-row team advancing 1,000 steps per call."""
    grid = EnergyGrid.from_levels(ising_4x4.energy_levels())
    wl = make_wang_landau(
        hamiltonian=ising_4x4, proposal=FlipProposal(), grid=grid,
        initial_config=np.zeros(16, dtype=np.int8), rng=0,
    )
    throughput(1_000)

    def block():
        wl.steps(1_000)
        return wl.n_steps

    assert benchmark(block) >= 1_000


def bench_wl_steps_batched(benchmark, ising_4x4, throughput):
    """Batched multi-walker WL stepping — the kernels-layer headline.

    64 walkers per super-step against a shared ln g; steps/s counts walker
    steps, directly comparable to ``bench_wl_steps_scalar``.
    """
    B, n_super = 64, 100
    grid = EnergyGrid.from_levels(ising_4x4.energy_levels())
    wl = make_wang_landau(
        hamiltonian=ising_4x4, proposal=FlipProposal(), grid=grid,
        initial_config=np.zeros(16, dtype=np.int8), rng=0,
        config=WLConfig(batch_size=B),
    )
    throughput(B * n_super)

    def block():
        wl.steps(n_super)
        return wl.n_steps

    assert benchmark(block) >= B * n_super
