"""Validate the sampler stack against exactly solvable physics.

Every number produced here has an exact reference:

- the 4x4 Ising density of states (full enumeration),
- finite-lattice U(T) and C(T) at any size (Kaufman's closed form),
- the Onsager critical temperature.

This is the example to run when modifying samplers — if these curves drift,
something fundamental broke.

Usage: python examples/ising_exact_check.py [L]   (default L=6)
"""

import sys

import numpy as np

from repro.dos import (
    exact_ising_dos_bruteforce,
    exact_ising_internal_energy,
    exact_ising_specific_heat,
    onsager_critical_temperature,
    thermodynamics,
)
from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.proposals import FlipProposal
from repro.sampling import EnergyGrid, WangLandauSampler, WLConfig
from repro.util.tables import format_table


def main(length: int = 6) -> None:
    # ---- exact DoS vs Wang-Landau at 4x4 --------------------------------
    ham4 = IsingHamiltonian(square_lattice(4))
    wl4 = WangLandauSampler(
        hamiltonian=ham4, proposal=FlipProposal(),
        grid=EnergyGrid.from_levels(ham4.energy_levels()),
        initial_config=np.zeros(16, dtype=np.int8), rng=0,
        config=WLConfig(ln_f_final=1e-5),
    )
    res4 = wl4.run()
    levels, degens = exact_ising_dos_bruteforce(4)
    exact = {float(e): np.log(d) for e, d in zip(levels, degens)}
    mg = res4.masked_ln_g()
    errs = [
        abs((mg[k] - mg[res4.visited][0]) - (exact[float(res4.grid.centers[k])] - exact[-32.0]))
        for k in np.nonzero(res4.visited)[0]
        if float(res4.grid.centers[k]) in exact
    ]
    print(f"4x4 Wang-Landau vs enumeration: max |Δ ln g| = {max(errs):.3f} "
          f"({res4.n_steps:,} steps)")

    # ---- WL thermodynamics vs Kaufman at LxL ----------------------------
    ham = IsingHamiltonian(square_lattice(length))
    wl = WangLandauSampler(
        hamiltonian=ham, proposal=FlipProposal(),
        grid=EnergyGrid.from_levels(ham.energy_levels()),
        initial_config=np.zeros(length * length, dtype=np.int8),
        rng=1, config=WLConfig(ln_f_final=1e-5),
    )
    res = wl.run(max_steps=80_000_000)
    temps = np.linspace(1.8, 3.2, 8)
    tab = thermodynamics(res.grid.centers[res.visited], res.masked_ln_g()[res.visited], temps)
    n = length * length
    rows = []
    for t, u, c in zip(temps, tab.internal_energy, tab.specific_heat):
        rows.append([
            t, u / n, exact_ising_internal_energy(length, length, t) / n,
            c / n, exact_ising_specific_heat(length, length, t) / n,
        ])
    print(format_table(
        ["T", "U/N (WL)", "U/N (Kaufman)", "C/N (WL)", "C/N (Kaufman)"],
        rows, title=f"{length}x{length} Ising: Wang-Landau vs exact finite-lattice solution",
    ))
    print(f"\ninfinite-lattice T_c (Onsager) = {onsager_critical_temperature():.4f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
