"""E7 bench (Fig 7): strong scaling — machine-model curves plus a *real*
campaign round at fixed total work.

``bench_campaign_fused`` measures one REWL advance round over W windows × K
walkers in process (``backend="fused"``): every window's team advances in
one block, whose super-steps price all windows' moves with one stacked
``delta_energy_*_many`` gather (gated in CI via ``--gate-only bench_e7``).
"""

import numpy as np

from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.machine import WorkloadSpec, crusher_mi250x, strong_scaling, summit_v100
from repro.parallel import REWLConfig, REWLDriver
from repro.proposals import FlipProposal
from repro.sampling import EnergyGrid

GPU_COUNTS = [6, 12, 24, 48, 96, 192, 384, 768, 1536, 3000]

#: Campaign-round shape shared by the bench_campaign_* rows: 2 windows x 64
#: walkers, 100 WL steps per walker per round (ln_f_final tiny so no window
#: converges mid-bench and every round does identical work).
CAMPAIGN_WINDOWS = 2
CAMPAIGN_WALKERS = 64
CAMPAIGN_INTERVAL = 100


def campaign_driver(backend="fused", n_windows=CAMPAIGN_WINDOWS):
    ham = IsingHamiltonian(square_lattice(4))
    grid = EnergyGrid.from_levels(ham.energy_levels())
    return REWLDriver(
        hamiltonian=ham, proposal_factory=lambda: FlipProposal(), grid=grid,
        initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(
            n_windows=n_windows, walkers_per_window=CAMPAIGN_WALKERS,
            overlap=0.6, exchange_interval=CAMPAIGN_INTERVAL,
            ln_f_final=1e-12, seed=5, backend=backend,
        ),
    )


def _campaign_steps(n_windows=CAMPAIGN_WINDOWS):
    return n_windows * CAMPAIGN_WALKERS * CAMPAIGN_INTERVAL


def bench_campaign_fused(benchmark, throughput):
    """Fused SPMD super-step: one stacked W*K-row gather per WL step."""
    drv = campaign_driver(backend="fused")
    throughput(_campaign_steps())
    benchmark(drv._advance_phase)


def bench_strong_scaling_v100(benchmark):
    points = benchmark(
        strong_scaling, summit_v100(), WorkloadSpec(), 3000, GPU_COUNTS
    )
    times = [p.round_time for p in points]
    assert all(a > b for a, b in zip(times, times[1:]))
    assert points[-1].efficiency > 0.5


def bench_strong_scaling_mi250x(benchmark):
    points = benchmark(
        strong_scaling, crusher_mi250x(), WorkloadSpec(), 3000, GPU_COUNTS
    )
    assert points[-1].speedup > 100
