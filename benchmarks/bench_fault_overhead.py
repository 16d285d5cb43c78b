"""Retry-loop overhead: fault tolerance must not tax fault-free runs.

The fault-tolerance contract (DESIGN.md §9) is that the driver's retry
loop costs a few percent at most on a REWL-advance-sized workload when
nothing is injected: armed (``REPRO_FAULTS`` set), it steps each window
alone instead of all windows in one block, and the fault wrapper is a
passthrough when no task faults are configured.  A chaos round (crash+hang
injection with retries) is benchmarked alongside to show what recovery
actually costs, as is the crash-consistent checkpoint write/read cycle.

Run: ``pytest benchmarks/bench_fault_overhead.py --benchmark-only``.
"""

import numpy as np

from repro.faults import FAULTS_ENV_VAR
from repro.parallel import REWLConfig, REWLDriver, save_checkpoint
from repro.parallel.checkpoint import load_checkpoint
from repro.proposals import FlipProposal
from repro.sampling import EnergyGrid

_STEPS = 2_000  # super-steps per window per round, REWL advance-phase sized
_WINDOWS = 4
_WALKERS = 2


def _driver(ising_4x4):
    grid = EnergyGrid.from_levels(ising_4x4.energy_levels())
    return REWLDriver(
        hamiltonian=ising_4x4, proposal_factory=lambda: FlipProposal(),
        grid=grid, initial_config=np.zeros(16, dtype=np.int8),
        # never converges inside the bench
        config=REWLConfig(n_windows=_WINDOWS, walkers_per_window=_WALKERS,
                          overlap=0.6, exchange_interval=_STEPS,
                          ln_f_final=1e-12, seed=0),
    )


def _bench_advance(benchmark, driver, throughput):
    throughput(_WINDOWS * _WALKERS * _STEPS)
    before = driver.total_steps()
    benchmark(driver._advance_phase)
    assert driver.total_steps() > before


def bench_advance_bare_loop(benchmark, ising_4x4, throughput, monkeypatch):
    """Baseline: one advance round, every window in one block."""
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    _bench_advance(benchmark, _driver(ising_4x4), throughput)


def bench_advance_supervised_no_faults(benchmark, ising_4x4, throughput,
                                       monkeypatch):
    """Retry loop armed, nothing injected — the overhead target: same work
    as the bare loop, window by window through the retry loop."""
    monkeypatch.setenv(FAULTS_ENV_VAR, "corrupt=0.0")
    driver = _driver(ising_4x4)
    assert driver._faults is not None
    assert not driver._faults.cfg.any_task_faults
    _bench_advance(benchmark, driver, throughput)


def bench_advance_under_chaos(benchmark, ising_4x4, throughput, monkeypatch):
    """Crash+hang injection with retries: the price of actually recovering
    (failed attempts fire before any step, so retries re-run nothing)."""
    monkeypatch.setenv(FAULTS_ENV_VAR, "crash=0.2,hang=0.05,hang_s=0.0,seed=3")
    _bench_advance(benchmark, _driver(ising_4x4), throughput)


def bench_checkpoint_save_load_cycle(benchmark, ising_4x4, tmp_path_factory):
    """Atomic write (tmp+fsync+rename, sha256) plus verified read-back."""
    grid = EnergyGrid.from_levels(ising_4x4.energy_levels())
    driver = REWLDriver(
        hamiltonian=ising_4x4, proposal_factory=lambda: FlipProposal(),
        grid=grid, initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(n_windows=2, walkers_per_window=2, overlap=0.6,
                   exchange_interval=500, ln_f_final=1e-12, seed=0),
    )
    driver.run(max_rounds=1)
    path = tmp_path_factory.mktemp("ckpt") / "bench.ckpt"

    def cycle():
        save_checkpoint(driver, path)
        load_checkpoint(driver, path)
        return driver.rounds

    assert benchmark(cycle) == 1
