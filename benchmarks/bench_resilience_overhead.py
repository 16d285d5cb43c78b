"""Resilience overhead: guard rails must not tax a healthy campaign.

The self-healing contract (DESIGN.md §14) is that a supervised REWL run with
no guard trips costs at most ~2% over the unsupervised driver on an
advance-dominated workload (``bench_e9_throughput`` style): per round the
supervisor only runs finiteness/shape checks over each window's ln g and
histogram plus a pickle byte-copy snapshot, both O(windows x bins) against
O(windows x walkers x exchange_interval) WL steps.  Gate the pair with
``python -m repro obs bench-compare OLD NEW``.

The isolated ``guard_round`` / ``snapshot`` benches price the two supervisor
primitives on their own, and the chaos bench shows what a degraded round
(persistent nan poisoning -> rollback -> quarantine) actually costs.

Run: ``pytest benchmarks/bench_resilience_overhead.py --benchmark-only``.
"""

import numpy as np

from repro.faults import FAULTS_ENV_VAR
from repro.parallel import REWLConfig, REWLDriver
from repro.proposals import FlipProposal
from repro.resilience import GuardPolicy, ResilienceConfig
from repro.sampling import EnergyGrid

_ROUNDS = 2  # exchange rounds per measured block
# Advance-dominated sizing: the guard sweep + snapshot cost ~1 ms/round
# regardless of exchange_interval, so the contract is stated against a
# production-shaped round (thousands of WL steps per walker), not a toy one.
_CFG = dict(n_windows=2, walkers_per_window=2, overlap=0.6,
            exchange_interval=2_000, ln_f_final=1e-12, seed=0)


def _driver(ising_4x4, resilience=None, **overrides):
    grid = EnergyGrid.from_levels(ising_4x4.energy_levels())
    cfg = dict(_CFG, **overrides)
    return REWLDriver(
        hamiltonian=ising_4x4, proposal_factory=lambda: FlipProposal(),
        grid=grid, initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(**cfg), resilience=resilience,
    )


def _steps_per_block():
    return _CFG["n_windows"] * _CFG["walkers_per_window"] * \
        _CFG["exchange_interval"] * _ROUNDS


def _bench_rounds(benchmark, driver):
    """Fixed-shape measurement for the guarded/unguarded pair.

    Explicit warmup rounds: the first run() call pays one-off costs (page
    faults, numpy dispatch caches) that would otherwise land asymmetrically
    on whichever bench the runner happens to execute first and swamp a
    percent-level comparison.
    """

    def block():
        driver.run(max_rounds=driver.rounds + _ROUNDS)
        return driver.rounds

    assert benchmark.pedantic(block, rounds=8, warmup_rounds=2) >= _ROUNDS


def bench_rewl_rounds_unguarded(benchmark, ising_4x4, throughput):
    """Baseline: the REWL round loop with no supervisor attached."""
    driver = _driver(ising_4x4)
    assert driver.supervisor is None
    throughput(_steps_per_block())
    _bench_rounds(benchmark, driver)


def bench_rewl_rounds_guarded_no_trips(benchmark, ising_4x4, throughput):
    """Supervised rounds, guards armed, nothing trips — the <=2% target.

    Same work as the unguarded bench plus only the per-round guard checks
    and the rollback snapshot.
    """
    driver = _driver(
        ising_4x4,
        resilience=ResilienceConfig(guards=GuardPolicy(mode="quarantine")),
    )
    throughput(_steps_per_block())
    _bench_rounds(benchmark, driver)
    assert not driver.supervisor.degraded


def bench_guard_round_checks(benchmark, ising_4x4):
    """One full guard sweep (ln g / histogram / ln f checks, all windows)."""
    driver = _driver(
        ising_4x4, resilience=ResilienceConfig(guards=GuardPolicy())
    )
    driver.run(max_rounds=1)

    def block():
        driver.supervisor.guard_round(driver)
        return driver.supervisor.quarantined

    assert benchmark(block) == []


def bench_snapshot_byte_copy(benchmark, ising_4x4):
    """The pickle byte-copy of every window team backing rollback."""
    driver = _driver(
        ising_4x4, resilience=ResilienceConfig(guards=GuardPolicy())
    )
    driver.run(max_rounds=1)

    def block():
        driver.supervisor.snapshot(driver)
        return len(driver.walkers)  # one team per window

    assert benchmark(block) == _CFG["n_windows"]


def bench_rewl_under_nan_chaos(benchmark, ising_4x4, monkeypatch):
    """Degraded campaign end-to-end: persistent nan poisoning of one window
    -> rollback budget burns -> quarantine -> partial harvest.

    Prices the recovery machinery (guard trips, snapshot restores, exchange
    re-pairing), not steady-state overhead; a fresh driver per round since a
    quarantine is permanent for the life of the run.
    """
    monkeypatch.setenv(FAULTS_ENV_VAR, "nan=1.0,window=1,seed=3")
    seeds = iter(range(10_000))

    def block():
        driver = _driver(
            ising_4x4,
            resilience=ResilienceConfig(
                guards=GuardPolicy(mode="quarantine", max_rollbacks=1)),
            seed=next(seeds), exchange_interval=100,
        )
        result = driver.run(max_rounds=8)
        return result.degraded

    assert benchmark(block) is True
