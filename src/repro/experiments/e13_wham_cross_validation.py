"""E13 (extension): WHAM cross-validation of the flat-histogram DoS.

Not a paper figure — an extension experiment (DESIGN.md §4b).  The paper's
thesis is that *direct* DoS evaluation beats per-temperature sampling; the
classical per-temperature route is canonical runs + WHAM reweighting.  Here
both routes run on the same NbMoTaW system and must agree:

1. the cached REWL/Wang-Landau ln g (E2),
2. WHAM over K independent canonical Metropolis chains (one block-engine
   team, a row per temperature).

Agreement is checked on ln g shape (where the canonical runs overlap) and on
U(T); the table also shows WHAM's structural weakness — the canonical runs
only cover the energy band their temperatures visit, while the
flat-histogram run covers everything, which is exactly the paper's argument.
"""

from __future__ import annotations

import numpy as np

from repro.dos import thermodynamics, wham
from repro.experiments.common import ExperimentResult, hea_system, timed
from repro.experiments.e02_hea_dos import load_or_run_hea_dos
from repro.hamiltonians import KB_EV_PER_K
from repro.lattice import random_configuration
from repro.proposals import SwapProposal
from repro.sampling import CanonicalTeam
from repro.util.rng import RngFactory
from repro.util.tables import format_table

__all__ = ["run"]


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    clock = timed()
    length = 3
    ham, counts = hea_system(length)
    rngs = RngFactory(seed)
    dos = load_or_run_hea_dos(length, seed=seed, quick=quick)
    grid = dos.grid

    # ---- per-temperature route: canonical runs + WHAM -------------------
    temps_k = [1500.0, 2500.0, 3500.0, 5000.0, 8000.0]
    betas = np.array([1.0 / (KB_EV_PER_K * t) for t in temps_k])
    n_steps = 60_000 if quick else 400_000
    # One canonical team, a row per temperature, observed after every step.
    starts = np.stack([
        random_configuration(ham.n_sites, counts, rng=rngs.make("wham-cfg", k))
        for k in range(len(betas))
    ])
    team = CanonicalTeam(ham, SwapProposal(), starts, betas, rng=rngs.make("wham-chain"))
    team.steps(5_000)
    hists = np.zeros((len(betas), grid.n_bins), dtype=np.int64)
    rows = np.arange(len(betas))
    for _ in range(n_steps):
        team.steps(1)
        b = grid.index_array(team.energies)
        inside = b >= 0
        hists[rows[inside], b[inside]] += 1
    wham_res = wham(grid.centers, hists, betas)

    # ---- agreement where both routes have support ------------------------
    both = dos.visited & wham_res.supported & (hists.sum(axis=0) > 200)
    wl_rel = dos.ln_g[both] - dos.ln_g[both][0]
    wh_rel = wham_res.ln_g[both] - wham_res.ln_g[both][0]
    lng_rms = float(np.sqrt(np.mean((wl_rel - wh_rel) ** 2)))

    check_t = np.array([2000.0, 3000.0, 4000.0])
    tab_wl = thermodynamics(dos.energies, dos.values, check_t, kb=KB_EV_PER_K)
    sup = wham_res.supported
    tab_wh = thermodynamics(
        grid.centers[sup], wham_res.ln_g[sup], check_t, kb=KB_EV_PER_K
    )
    u_gap = float(np.max(np.abs(tab_wl.internal_energy - tab_wh.internal_energy)))

    coverage_wl = int(dos.visited.sum())
    coverage_wh = int(wham_res.supported.sum())
    rows = [
        ["bins covered", coverage_wl, coverage_wh],
        ["ln g span", float(dos.span),
         float(np.ptp(wham_res.ln_g[wham_res.supported]))],
        ["ln g RMS gap (shared bins)", lng_rms, lng_rms],
        ["max |U_WL - U_WHAM| [eV]", u_gap, u_gap],
    ]

    result = ExperimentResult(
        experiment_id="E13",
        title="Extension: WHAM cross-validation of the REWL DoS",
        paper_claim=(
            "direct flat-histogram DoS evaluation matches per-temperature "
            "sampling where the latter has support, and covers the full "
            "range a fixed temperature ladder cannot"
        ),
        measured=(
            f"ln g RMS gap {lng_rms:.2f} on {int(both.sum())} shared bins; "
            f"max U(T) gap {u_gap:.3f} eV; coverage {coverage_wl} bins (REWL) "
            f"vs {coverage_wh} (WHAM ladder of {len(betas)} temperatures)"
        ),
        tables={
            "cross": format_table(
                ["quantity", "REWL/WL", "WHAM"],
                rows, title="E13: two independent routes to the NbMoTaW DoS",
            ),
        },
        data={
            "lng_rms_gap": lng_rms,
            "u_max_gap": u_gap,
            "coverage_wl": coverage_wl,
            "coverage_wham": coverage_wh,
            "wham_converged": wham_res.converged,
            "ladder_temps_k": temps_k,
        },
    )
    return clock.stamp(result)


if __name__ == "__main__":
    run().print()
