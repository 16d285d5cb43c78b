"""Train a deep-learning MC proposal and watch it accelerate sampling.

The DeepThermo loop in miniature:

1. harvest configurations from a cheap local-swap chain,
2. train a MADE (exact-density) and a VAE proposal on them,
3. compare local vs learned-global kernels on acceptance and
   autocorrelation time at the training temperature.

Usage: python examples/learned_proposal_training.py
"""

import numpy as np

from repro.analysis import effective_sample_size, integrated_autocorrelation_time
from repro.hamiltonians import KB_EV_PER_K, NbMoTaWHamiltonian
from repro.lattice import bcc, equiatomic_counts, random_configuration
from repro.nn import MADE, CategoricalVAE, MADEConfig, VAEConfig
from repro.proposals import MADEProposal, SwapProposal, VAEProposal
from repro.sampling import MetropolisSampler
from repro.training import ProposalTrainer, ReplayBuffer, pretrain_from_chain
from repro.util.tables import format_table


def main() -> None:
    ham = NbMoTaWHamiltonian(bcc(3), n_shells=1)
    counts = equiatomic_counts(ham.n_sites, 4)
    # Near the order-disorder transition — the regime the paper evaluates
    # (deep in the ordered phase no independence proposal can match the
    # frozen target at small training budgets; see EXPERIMENTS.md E5/E10).
    temperature = 3000.0
    beta = 1.0 / (KB_EV_PER_K * temperature)

    # ---- 1+2. harvest and train both model families ---------------------
    models = {}
    for name, model in [
        ("vae", CategoricalVAE(VAEConfig(ham.n_sites, 4, latent_dim=8, hidden=(96, 48)), rng=0)),
        ("made", MADE(MADEConfig(ham.n_sites, 4, hidden=(128,)), rng=1)),
    ]:
        buffer = ReplayBuffer(512, ham.n_sites, 4)
        trainer = ProposalTrainer(model, buffer, lr=2e-3, batch_size=64, rng=2)
        out = pretrain_from_chain(
            ham, SwapProposal(), beta,
            random_configuration(ham.n_sites, counts, rng=3),
            trainer, n_burn_in=5_000, n_harvest=500,
            harvest_interval=2 * ham.n_sites,  # decorrelated harvest
            train_steps=1_200, seed=4,
        )
        print(f"trained {name}: harvest chain acceptance {out['chain_acceptance']:.2f}, "
              f"final loss {out['last_loss']:.2f}")
        models[name] = model

    # ---- 3. head-to-head -------------------------------------------------
    kernels = {
        "swap (local)": SwapProposal(),
        "vae (global)": VAEProposal(models["vae"], n_marginal_samples=16,
                                    composition="reject", logit_temperature=1.5),
        "made (global)": MADEProposal(models["made"], composition="fixed"),
    }
    rows = []
    for name, proposal in kernels.items():
        sampler = MetropolisSampler(
            ham, proposal, beta,
            random_configuration(ham.n_sites, counts, rng=5), rng=6,
        )
        sampler.run(400)
        stats = sampler.run(1_500, record_energy_every=1)
        if stats.acceptance_rate > 0.0:
            tau = integrated_autocorrelation_time(stats.energies)
            ess = effective_sample_size(stats.energies)
        else:  # frozen chain: autocorrelation is undefined, not "0.5"
            tau, ess = float("inf"), 0.0
        rows.append([name, stats.acceptance_rate, tau, ess])
    print()
    print(format_table(
        ["kernel", "acceptance", "tau_int [proposals]", "ESS of 1500"],
        rows, title=f"proposal quality at {temperature:.0f} K (NbMoTaW, N={ham.n_sites})",
    ))
    best = max(rows, key=lambda row: row[3])
    print(f"\nlargest ESS: {best[0]} ({best[3]:.0f} of 1500 proposals, "
          f"acceptance {best[1]:.2f})")


if __name__ == "__main__":
    main()
