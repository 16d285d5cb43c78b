"""E10 (Table 4): training-cost and estimator ablation for the DL proposal.

The knobs DeepThermo has to tune in practice, swept on a small HEA:

- training budget (gradient steps) → DL-move acceptance.  Over-training an
  independence proposal *sharpens* it past the target and acceptance
  degrades — the sweep exposes that trade-off, and
- decoder broadening τ (``logit_temperature``) → the standard control that
  recovers acceptance from an over-sharpened model,
- IWAE marginal samples S → acceptance stability vs per-proposal cost,
- the composition manifold: ``"reject"`` decoding (exact, DESIGN.md §12)
  at few and many estimator terms → acceptance and the ⟨E⟩ difference
  against a long local-swap reference mean.

Every sweep decodes with ``composition="reject"``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.common import ExperimentResult, timed
from repro.hamiltonians import KB_EV_PER_K, NbMoTaWHamiltonian
from repro.lattice import bcc, equiatomic_counts, random_configuration
from repro.nn import CategoricalVAE, VAEConfig
from repro.proposals import SwapProposal, VAEProposal
from repro.sampling import MetropolisSampler
from repro.training import ProposalTrainer, ReplayBuffer, pretrain_from_chain
from repro.util.rng import RngFactory
from repro.util.tables import format_table

__all__ = ["run"]


def _fresh_trainer(ham, rngs, tag):
    model = CategoricalVAE(
        VAEConfig(ham.n_sites, 4, latent_dim=8, hidden=(96, 48)),
        rng=rngs.make(f"{tag}-init"),
    )
    buffer = ReplayBuffer(512, ham.n_sites, 4)
    trainer = ProposalTrainer(model, buffer, lr=1e-3, batch_size=64,
                              rng=rngs.make(f"{tag}-train"))
    return model, trainer


def _acceptance(ham, counts, proposal, beta, rngs, tag, n_steps):
    sampler = MetropolisSampler(
        ham, proposal, beta,
        random_configuration(ham.n_sites, counts, rng=rngs.make(f"{tag}-cfg")),
        rng=rngs.make(f"{tag}-chain"),
    )
    sampler.run(n_steps // 4)
    stats = sampler.run(n_steps, record_energy_every=1)
    return stats.acceptance_rate, float(stats.energies.mean())


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    clock = timed()
    ham = NbMoTaWHamiltonian(bcc(3), n_shells=1)
    counts = equiatomic_counts(ham.n_sites, 4)
    rngs = RngFactory(seed)
    t_k = 3000.0  # near the transition (see E5)
    beta = 1.0 / (KB_EV_PER_K * t_k)
    n_steps = 600 if quick else 4_000

    # Shared training setup: a *decorrelated* harvest (interval ~ 2 sweeps)
    # — correlated harvests are the classic cause of proposal mode collapse.
    model, trainer = _fresh_trainer(ham, rngs, "budget")
    pretrain_from_chain(
        ham, SwapProposal(), beta,
        random_configuration(ham.n_sites, counts, rng=rngs.make("budget-seed")),
        trainer, n_burn_in=5_000, n_harvest=400,
        harvest_interval=2 * ham.n_sites, train_steps=50,
        seed=rngs.seed_for("budget-pretrain"),
    )

    # --- sweep 1: training budget ---------------------------------------
    budget_rows = []
    budgets = [50, 200, 800] if quick else [50, 200, 800, 3200]
    trained = 50
    for budget in budgets:
        if budget > trained:
            trainer.train_steps(budget - trained)
            trained = budget
        acc, _ = _acceptance(
            ham, counts,
            VAEProposal(model, n_marginal_samples=32, composition="reject"),
            beta, rngs, f"budget{budget}", n_steps,
        )
        budget_rows.append([budget, trainer.loss_history[-1], acc])

    # --- sweep 2: decoder broadening τ -----------------------------------
    tau_rows = []
    for tau in [1.0, 1.5, 2.5, 4.0]:
        prop = VAEProposal(model, n_marginal_samples=32, composition="reject",
                           logit_temperature=tau)
        acc, _ = _acceptance(ham, counts, prop, beta, rngs, f"tau{tau}", n_steps)
        tau_rows.append([tau, acc])
    best_tau = float(max(tau_rows, key=lambda r: r[1])[0])

    # --- sweep 3: marginal samples (acceptance vs cost) ------------------
    sample_rows = []
    for s in [4, 16, 64]:
        prop = VAEProposal(model, n_marginal_samples=s, composition="reject",
                           logit_temperature=best_tau)
        start = time.perf_counter()
        acc, _ = _acceptance(ham, counts, prop, beta, rngs, f"s{s}", n_steps)
        per_step_ms = (time.perf_counter() - start) / (n_steps + n_steps // 4) * 1e3
        sample_rows.append([s, acc, per_step_ms])

    # --- sweep 4: <E> on the composition manifold against local swaps -----
    _, ref_mean = _acceptance(
        ham, counts, SwapProposal(), beta, rngs, "ref", 30 * n_steps
    )
    comp_rows = [["swap reference", 1.0, ref_mean, 0.0]]
    for s in [4, 32]:
        prop = VAEProposal(model, n_marginal_samples=s, composition="reject",
                           max_reject_tries=128, logit_temperature=best_tau)
        acc, mean_e = _acceptance(ham, counts, prop, beta, rngs, f"mode-reject-{s}",
                                  4 * n_steps)
        comp_rows.append([f"vae (reject, S={s})", acc, mean_e, mean_e - ref_mean])

    result = ExperimentResult(
        experiment_id="E10",
        title="Training-cost and estimator ablation (VAE proposal)",
        paper_claim=(
            "DL-proposal acceptance depends on training budget and proposal "
            "sharpness; the practical composition projection introduces at "
            "most a small controlled bias"
        ),
        measured=(
            f"acceptance over the training sweep: "
            f"{' -> '.join(f'{r[2]:.3f}' for r in budget_rows)}; over decoder "
            f"broadening the best is {max(r[1] for r in tau_rows):.3f} at "
            f"tau={best_tau}; on the composition manifold (exact reject "
            f"decoding) <E> reads {comp_rows[1][3]:+.3f} eV (S=4, acceptance "
            f"{comp_rows[1][1]:.3f}) and {comp_rows[2][3]:+.3f} eV (S=32, "
            f"acceptance {comp_rows[2][1]:.3f}) from the swap reference, vs a "
            f"{abs(ref_mean):.1f} eV-scale mean: single VAE-only chains of "
            f"{4 * n_steps} proposals from a random start, which move little at "
            f"that acceptance (the kernel itself passes the enumeration tests)"
        ),
        tables={
            "budget": format_table(
                ["train steps", "final loss", "DL acceptance"],
                budget_rows, title="Table 4a: acceptance vs training budget "
                                   "(sharpening trade-off)",
            ),
            "tau": format_table(
                ["logit temperature τ", "DL acceptance"],
                tau_rows, title="Table 4b: acceptance vs decoder broadening",
            ),
            "samples": format_table(
                ["marginal samples S", "DL acceptance", "ms/step (host)"],
                sample_rows, title="Table 4c: acceptance vs IWAE samples",
            ),
            "composition": format_table(
                ["kernel", "acceptance", "<E> [eV]", "<E> − reference [eV]"],
                comp_rows, title="Table 4d: <E> on the composition manifold "
                                 "(reject decoding) vs local swaps",
            ),
        },
        data={
            "budget_sweep": budget_rows,
            "tau_sweep": tau_rows,
            "sample_sweep": sample_rows,
            "composition_sweep": comp_rows,
            "best_tau": best_tau,
        },
    )
    return clock.stamp(result)


if __name__ == "__main__":
    run().print()
