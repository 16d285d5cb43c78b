"""E5 bench (Fig 5/Table 2): proposal kernel costs.

The per-proposal costs that set the local-vs-DL trade-off: swap ΔE
evaluation, VAE global proposal (pooled decodes with their IWAE estimates,
plus a fresh estimate of the current row), MADE global proposal (exact
densities) — each one walker's move, a one-row ``propose_many`` call.
"""

import numpy as np

from repro.nn import MADE, CategoricalVAE, MADEConfig, VAEConfig
from repro.proposals import MADEProposal, SwapProposal, VAEProposal


def bench_swap_proposal(benchmark, hea, hea_config, throughput):
    prop = SwapProposal()
    rng = np.random.default_rng(0)
    config = hea_config[None]
    energy = hea.energies(config)
    throughput(1)  # one proposal per round

    move = benchmark(prop.propose_many, config, hea, rng, energy)
    assert move.batch_size == 1


def bench_vae_proposal(benchmark, hea, hea_config):
    model = CategoricalVAE(
        VAEConfig(hea.n_sites, 4, latent_dim=8, hidden=(64, 32)), rng=0
    )
    prop = VAEProposal(model, n_marginal_samples=16, composition="reject")
    rng = np.random.default_rng(1)
    config = hea_config[None]
    energy = hea.energies(config)

    move = benchmark(prop.propose_many, config, hea, rng, energy)
    assert move.sites.shape == (1, hea.n_sites)


def bench_made_proposal(benchmark, hea, hea_config):
    model = MADE(MADEConfig(hea.n_sites, 4, hidden=(128,)), rng=0)
    prop = MADEProposal(model, composition="fixed")
    rng = np.random.default_rng(2)
    config = hea_config[None]
    energy = hea.energies(config)

    move = benchmark(prop.propose_many, config, hea, rng, energy)
    assert move.sites.shape == (1, hea.n_sites)
