"""One conditional model serving every replica of a tempering ladder.

DeepThermo-style production runs host many walkers at different
temperatures; training a proposal per walker is wasteful.  This example
trains a single temperature-conditioned MADE (``MADEConfig(cond_dim=1)``)
on data pooled from two chains and then drives Metropolis chains at
*several* temperatures — including one never seen in training — with exact
conditional densities, through one ``MADEProposal`` per replica whose
``conditioner`` hands the model that replica's temperature.

Usage: python examples/conditional_proposal.py
"""

import numpy as np

from repro.hamiltonians import IsingHamiltonian, enumerate_density_of_states
from repro.lattice import one_hot, square_lattice
from repro.nn import MADE, Adam, MADEConfig
from repro.proposals import FlipProposal, MADEProposal
from repro.sampling import MetropolisSampler
from repro.util.tables import format_table


def exact_mean_energy(levels, degens, beta):
    w = np.log(degens) - beta * levels
    w -= w.max()
    p = np.exp(w) / np.exp(w).sum()
    return float(np.dot(p, levels))


def main() -> None:
    ham = IsingHamiltonian(square_lattice(3))
    levels, degens = enumerate_density_of_states(ham)

    # ---- train one model on two temperatures -----------------------------
    model = MADE(MADEConfig(n_sites=9, n_species=2, hidden=(64,), cond_dim=1), rng=0)
    opt = Adam(model.parameters(), lr=5e-3)
    data, conds = [], []
    train_betas = (0.15, 0.45)
    for beta in train_betas:
        chain = MetropolisSampler(ham, FlipProposal(), beta,
                                  np.zeros(9, dtype=np.int8), rng=int(beta * 100))
        chain.run(2_000)

        def collect(s, _k, beta=beta):
            data.append(one_hot(s.config, 2))
            conds.append([beta])

        chain.run(4_000, callback=collect, callback_every=20)
    data, conds = np.stack(data), np.asarray(conds)
    rng = np.random.default_rng(1)
    for _ in range(400):
        idx = rng.integers(0, len(data), 64)
        model.train_step(data[idx], opt, cond=conds[idx])
    print(f"trained one conditioned MADE on betas {train_betas}")

    # ---- drive chains at trained AND interpolated temperatures -----------
    rows = []
    for beta in (0.15, 0.30, 0.45):  # 0.30 was never trained on
        prop = MADEProposal(
            model, composition="free",
            conditioner=lambda cfg, e, beta=beta: np.array([beta]),
        )
        sampler = MetropolisSampler(ham, prop, beta,
                                    np.zeros(9, dtype=np.int8), rng=int(beta * 997))
        sampler.run(500)
        stats = sampler.run(4_000, record_energy_every=2)
        rows.append([
            beta, beta in train_betas, sampler.acceptance_rate,
            stats.energies.mean(), exact_mean_energy(levels, degens, beta),
        ])
    print(format_table(
        ["beta", "trained?", "acceptance", "<E> sampled", "<E> exact"],
        rows, title="one conditional proposal across the ladder (3x3 Ising)",
    ))
    print("\nthe interpolated temperature works without retraining — the "
          "conditioning input generalizes across the ladder.")


if __name__ == "__main__":
    main()
