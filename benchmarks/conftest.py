"""Shared fixtures for the benchmark harness.

Each ``bench_eNN_*.py`` file regenerates (a small-scale instance of) one
paper table/figure kernel; the full-fidelity harness is
``python -m repro.experiments.run_all``.  Benchmarks are sized so the whole
directory finishes in a few minutes under ``--benchmark-only``.

The common runner is :mod:`repro.obs.bench` (``python -m repro obs bench``):
it executes any subset of these files in a child pytest and captures the
results as a versioned ``BENCH_<n>.json`` snapshot.  Benches that loop a
known number of MC steps per round record it via the ``throughput`` fixture
so the snapshot (and ``bench-compare``) can report steps/s, not just wall
time.
"""

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian, NbMoTaWHamiltonian
from repro.lattice import bcc, equiatomic_counts, random_configuration, square_lattice


@pytest.fixture(scope="session")
def ising_4x4():
    return IsingHamiltonian(square_lattice(4))


@pytest.fixture(scope="session")
def hea():
    return NbMoTaWHamiltonian(bcc(3))


@pytest.fixture(scope="session")
def hea_counts(hea):
    return equiatomic_counts(hea.n_sites, 4)


@pytest.fixture()
def hea_config(hea, hea_counts):
    return random_configuration(hea.n_sites, hea_counts, rng=0)


@pytest.fixture()
def make_ising_wl(ising_4x4):
    """Factory for the 4x4 Ising single-walker Wang-Landau sampler (a
    one-row team) the step benches share."""
    from repro.proposals import FlipProposal
    from repro.sampling import EnergyGrid, WangLandauSampler, WLConfig

    grid = EnergyGrid.from_levels(ising_4x4.energy_levels())

    def _make(seed=0, ln_f_final=1e-4, proposal=None):
        return WangLandauSampler(
            hamiltonian=ising_4x4,
            proposal=proposal if proposal is not None else FlipProposal(),
            grid=grid, initial_config=np.zeros(16, dtype=np.int8),
            rng=seed, config=WLConfig(ln_f_final=ln_f_final),
        )

    return _make


@pytest.fixture()
def throughput(benchmark):
    """Record a bench's MC-steps-per-round in the pytest-benchmark JSON.

    ``repro.obs.bench`` divides it by the measured mean round time to put a
    steps/s figure in the BENCH snapshot.
    """

    def _record(steps_per_round):
        benchmark.extra_info["steps_per_round"] = int(steps_per_round)

    return _record


@pytest.fixture()
def rss_budget(benchmark):
    """Record a peak-RSS budget and the measured peak into the snapshot.

    Call ``rss_budget(budget_mb)`` *after* the benchmarked work ran; the
    fixture stamps ``rss_budget_kb`` and the process ``ru_maxrss`` into
    ``extra_info`` so ``bench-compare`` can gate memory, not just time.
    ``ru_maxrss`` is max-so-far for the whole child process (earlier
    benches in the same run contribute), so budgets are sized as hard
    ceilings for the whole tier, not tight per-bench envelopes.
    """

    def _record(budget_mb):
        import resource

        benchmark.extra_info["rss_budget_kb"] = int(budget_mb * 1024)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        import sys
        if sys.platform == "darwin":  # bytes there, kB on Linux
            peak_kb //= 1024
        benchmark.extra_info["peak_rss_kb"] = int(peak_kb)

    return _record
