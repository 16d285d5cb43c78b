"""E1 (Fig 1): Wang-Landau validation against exact 2D Ising references.

Two independent checks of the flat-histogram pipeline the whole paper rests
on ("directly evaluate a density of states"):

1. ln g(E) from Wang-Landau vs exact enumeration on the 4×4 Ising torus —
   the direct DoS comparison,
2. U(T) and C(T) computed *from* the WL DoS on an 8×8 torus vs Kaufman's
   closed-form finite-lattice solution — validates the DoS → thermodynamics
   pipeline at a size beyond enumeration.
"""

from __future__ import annotations

import numpy as np

from repro.dos import (
    exact_ising_dos_bruteforce,
    exact_ising_internal_energy,
    exact_ising_specific_heat,
    thermodynamics,
)
from repro.experiments.common import ExperimentResult, timed
from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.proposals import FlipProposal
from repro.sampling import EnergyGrid, WangLandauSampler, WLConfig
from repro.util.tables import format_table

__all__ = ["run"]


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    clock = timed()
    large = 6 if quick else 8
    ln_f_final = 1e-5 if quick else 1e-7

    # --- part 1: direct ln g comparison at 4x4 -------------------------
    ham4 = IsingHamiltonian(square_lattice(4))
    grid4 = EnergyGrid.from_levels(ham4.energy_levels())
    wl4 = WangLandauSampler(
        hamiltonian=ham4, proposal=FlipProposal(), grid=grid4,
        initial_config=np.zeros(16, dtype=np.int8),
        rng=seed, config=WLConfig(ln_f_final=ln_f_final),
    )
    res4 = wl4.run()
    levels, degens = exact_ising_dos_bruteforce(4)
    exact = {float(e): float(np.log(d)) for e, d in zip(levels, degens)}
    rows = []
    errs = []
    mg = res4.masked_ln_g()
    for k in np.nonzero(res4.visited)[0]:
        e = float(grid4.centers[k])
        if e not in exact:
            continue
        est = mg[k] - mg[res4.visited][0]
        ex = exact[e] - exact[float(grid4.centers[res4.visited][0])]
        errs.append(abs(est - ex))
        rows.append([e, est, ex, est - ex])
    rms = float(np.sqrt(np.mean(np.square(errs))))

    # --- part 2: thermodynamics at LxL vs Kaufman ----------------------
    ham_l = IsingHamiltonian(square_lattice(large))
    grid_l = EnergyGrid.from_levels(ham_l.energy_levels())
    wl_l = WangLandauSampler(
        hamiltonian=ham_l, proposal=FlipProposal(), grid=grid_l,
        initial_config=np.zeros(large * large, dtype=np.int8),
        rng=seed + 1, config=WLConfig(ln_f_final=max(ln_f_final, 1e-5)),
    )
    res_l = wl_l.run(max_steps=60_000_000)
    temps = np.linspace(1.6, 3.4, 13)
    tab = thermodynamics(
        grid_l.centers[res_l.visited], res_l.masked_ln_g()[res_l.visited], temps
    )
    thermo_rows = []
    u_errs, c_errs = [], []
    n = large * large
    for t, u, c in zip(temps, tab.internal_energy, tab.specific_heat):
        u_exact = exact_ising_internal_energy(large, large, t)
        c_exact = exact_ising_specific_heat(large, large, t)
        u_errs.append(abs(u - u_exact) / n)
        c_errs.append(abs(c - c_exact) / n)
        thermo_rows.append([t, u / n, u_exact / n, c / n, c_exact / n])

    result = ExperimentResult(
        experiment_id="E1",
        title="Wang-Landau validation vs exact 2D Ising",
        paper_claim=(
            "flat-histogram sampler converges to the true density of states "
            "(prerequisite for all DoS results)"
        ),
        measured=(
            f"4x4 ln g RMS error {rms:.3f} (max {max(errs):.3f}); "
            f"{large}x{large} U(T)/N max error {max(u_errs):.4f}, "
            f"C(T)/N max error {max(c_errs):.3f} vs Kaufman exact"
        ),
        tables={
            "lng_4x4": format_table(
                ["E", "ln g (WL, rel)", "ln g (exact, rel)", "error"],
                rows, title="Fig 1a: Wang-Landau vs exact DoS, 4x4 Ising",
            ),
            "thermo": format_table(
                ["T", "U/N (WL)", "U/N (exact)", "C/N (WL)", "C/N (exact)"],
                thermo_rows,
                title=f"Fig 1b: thermodynamics from WL DoS, {large}x{large} Ising",
            ),
        },
        data={
            "lng_rms_error": rms,
            "lng_max_error": float(max(errs)),
            "u_max_error_per_site": float(max(u_errs)),
            "c_max_error_per_site": float(max(c_errs)),
            "wl_steps_4x4": res4.n_steps,
            "wl_steps_large": res_l.n_steps,
            "large": large,
        },
    )
    return clock.stamp(result)


if __name__ == "__main__":
    run().print()
