"""Quickstart: sample a high entropy alloy and compute its thermodynamics.

Runs in ~1 minute. Demonstrates the three core layers of the library:

1. build the NbMoTaW system (lattice + effective pair interactions),
2. canonical Metropolis sampling at one temperature,
3. Wang-Landau density of states -> specific heat at *all* temperatures.

Usage: python examples/quickstart.py

Set ``REPRO_TRACE=quickstart.jsonl`` to capture a telemetry trace (phase
spans, WL iteration events); render it afterwards with
``python -m repro.obs.report quickstart.jsonl``.
"""

import numpy as np

from repro.analysis import transition_temperature, warren_cowley
from repro.analysis.sro import sro_matrix_table
from repro.dos import normalize_ln_g, thermodynamics
from repro.dos.thermo import log_multinomial
from repro.hamiltonians import KB_EV_PER_K, NbMoTaWHamiltonian
from repro.lattice import NBMOTAW, bcc, equiatomic_counts, random_configuration
from repro.obs import Telemetry
from repro.proposals import SwapProposal
from repro.sampling import (
    EnergyGrid,
    MetropolisSampler,
    WangLandauSampler,
    WLConfig,
    drive_into_range,
)
from repro.util.tables import format_table


def main() -> None:
    tel = Telemetry.from_env(run_id="quickstart")

    # ---- 1. the system --------------------------------------------------
    with tel.span("setup"):
        lattice = bcc(3)  # 54-site BCC supercell
        ham = NbMoTaWHamiltonian(lattice)
        counts = equiatomic_counts(ham.n_sites, 4)
        config = random_configuration(ham.n_sites, counts, rng=0)
    print(f"system: {ham!r}")
    print(f"random-alloy energy: {ham.energy(config):+.3f} eV\n")

    # ---- 2. canonical sampling at 600 K ---------------------------------
    temperature = 600.0
    beta = 1.0 / (KB_EV_PER_K * temperature)
    with tel.span("metropolis", temperature=temperature):
        sampler = MetropolisSampler(ham, SwapProposal(), beta, config, rng=1)
        sampler.run_sweeps(100)  # equilibrate
        stats = sampler.run_sweeps(200, record_energy_every=ham.n_sites)
    print(f"Metropolis @ {temperature:.0f} K: <E> = {stats.energies.mean():+.3f} eV, "
          f"acceptance = {sampler.acceptance_rate:.2f}")
    alpha = warren_cowley(lattice, sampler.config, 4)
    print(sro_matrix_table(alpha, NBMOTAW.names))
    print()

    # ---- 3. density of states -> all temperatures at once ---------------
    grid = EnergyGrid.uniform(-11.0, 1.0, 24)
    with tel.span("wang_landau"):
        start = drive_into_range(ham, SwapProposal(), grid, config, rng=2)
        wl = WangLandauSampler(hamiltonian=ham, proposal=SwapProposal(),
                               grid=grid, initial_config=start, rng=3,
                               config=WLConfig(ln_f_final=5e-3, flatness=0.7))
        result = wl.run(max_steps=3_000_000, telemetry=tel)
    print(f"Wang-Landau: converged={result.converged} after {result.n_steps:,} steps, "
          f"{result.n_iterations} iterations "
          f"({result.counters.out_of_grid:,} out-of-grid rejections)")

    energies = grid.centers[result.visited]
    ln_g = normalize_ln_g(result.masked_ln_g()[result.visited], log_multinomial(counts))
    temps = np.linspace(200.0, 3000.0, 30)
    table = thermodynamics(energies, ln_g, temps, kb=KB_EV_PER_K)
    tc, cmax = transition_temperature(temps, table.specific_heat / (ham.n_sites * KB_EV_PER_K))
    rows = [
        [t, u, c / (ham.n_sites * KB_EV_PER_K)]
        for t, u, c in zip(temps[::3], table.internal_energy[::3], table.specific_heat[::3])
    ]
    print(format_table(["T [K]", "U [eV]", "C/N [k_B]"], rows,
                       title="thermodynamics from one Wang-Landau run"))
    print(f"\norder-disorder transition estimate: T_c ≈ {tc:.0f} K (C/N peak {cmax:.2f} k_B)")

    if tel.enabled:
        print(f"\ntelemetry trace captured (run id {tel.events.run_id}); render with "
              "`python -m repro.obs.report <trace.jsonl>`")
    tel.close()


if __name__ == "__main__":
    main()
