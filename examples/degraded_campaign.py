"""Graceful degradation: a chaos campaign that finishes instead of dying.

One REWL window is permanently poisoned (deterministic nan injection into
its ln g), and the campaign supervisor heals around it: guards catch the
corruption, the rollback budget burns, the window is quarantined, the
surviving neighbors are re-paired, and the run completes with an explicit
``degraded`` flag, a per-window disposition table, and a best-effort
stitched density of states with a recorded coverage gap.  Running twice
with the same seeds produces bit-identical output — chaos included — and
so does the same campaign on two shared-memory worker ranks.

Usage: python examples/degraded_campaign.py

The fault mix and the resilience policy come from the standard env knobs
when set (as in the CI degraded-smoke job)::

    REPRO_FAULTS="nan=1.0,window=1,seed=0" \\
    REPRO_RESILIENCE="mode=quarantine,rollbacks=1" \\
        python examples/degraded_campaign.py

and default to exactly those values when unset, so the script stands alone.
"""

import os

import numpy as np

from repro.faults import FAULTS_ENV_VAR
from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.parallel import REWLConfig, REWLDriver
from repro.proposals import FlipProposal
from repro.resilience import GuardPolicy, ResilienceConfig
from repro.sampling import EnergyGrid
from repro.util.tables import format_table


def run_campaign(**backend):
    # The driver reads REPRO_FAULTS when it is built.
    os.environ.setdefault(FAULTS_ENV_VAR, "nan=1.0,window=1,seed=0")
    resilience = ResilienceConfig.from_env()
    if resilience is None:
        resilience = ResilienceConfig(
            guards=GuardPolicy(mode="quarantine", max_rollbacks=1))

    ising = IsingHamiltonian(square_lattice(4))
    grid = EnergyGrid.from_levels(ising.energy_levels())
    driver = REWLDriver(
        hamiltonian=ising, proposal_factory=lambda: FlipProposal(),
        grid=grid, initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(n_windows=4, walkers_per_window=1, overlap=0.4,
                          exchange_interval=400, ln_f_final=5e-3, seed=21,
                          **backend),
        resilience=resilience,
    )
    try:
        return driver.run(max_rounds=300)
    finally:
        driver.close()


def main() -> None:
    result = run_campaign()

    rows = [
        [d["window"], d["disposition"], d["guard_trips"], d["rollbacks"],
         d["reason"] or "-"]
        for d in result.window_dispositions
    ]
    print(format_table(
        ["window", "disposition", "guard trips", "rollbacks", "reason"],
        rows, title=f"campaign {'DEGRADED' if result.degraded else 'complete'}"
    ))

    assert result.degraded, "the poisoned window should degrade the campaign"
    assert result.quarantined, "the poisoned window should be quarantined"

    stitched = result.stitched()  # allow_gaps defaults on for degraded runs
    print(f"\nstitched DoS: segments={stitched.segments} "
          f"coverage_gaps={stitched.coverage_gaps} "
          f"skipped={stitched.skipped} complete={stitched.complete}")
    assert not stitched.complete
    assert stitched.skipped == list(result.quarantined)
    assert stitched.visited.any(), "survivors must still contribute a DoS"

    rerun = run_campaign()
    assert rerun.quarantined == result.quarantined
    again = rerun.stitched()
    assert np.array_equal(again.ln_g, stitched.ln_g), \
        "degraded runs must be bit-identically reproducible"
    print("\nrerun with the same seeds: bit-identical (chaos included)")

    shm = run_campaign(backend="shm", shm_ranks=2)
    assert shm.quarantined == result.quarantined
    assert shm.window_dispositions == result.window_dispositions
    assert np.array_equal(shm.stitched().ln_g, stitched.ln_g), \
        "the shm backend must degrade exactly as the in-process one"
    print("on 2 shared-memory ranks: bit-identical (chaos included)")


if __name__ == "__main__":
    main()
