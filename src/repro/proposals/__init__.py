"""MC proposal framework (S4).

The paper's central idea is that the *proposal* is pluggable and may be a
deep generative model performing global configuration updates.  Exactness is
preserved because every proposal reports, alongside the move itself, the
log proposal-density ratio ``log q(x|x') − log q(x'|x)`` that enters the
Metropolis–Hastings acceptance rule.  Every move is proposed as a batch,
one row per walker (:meth:`Proposal.propose_many` → :class:`BatchMove`).

Local proposals (``log q`` ratio = 0 by symmetry):

- :class:`SwapProposal` — exchange two sites (canonical; composition fixed),
- :class:`NeighborSwapProposal` — Kawasaki dynamics (nearest-neighbor swap),
- :class:`FlipProposal` — single-site mutation (grand canonical; Ising/Potts).

Learned global proposals:

- :class:`VAEProposal` — decode a prior latent draw (paper's model);
  proposal density estimated by importance sampling, the estimate carried
  with the row so the kernel stays exact,
- :class:`MADEProposal` — autoregressive model with *exact* density,
  optionally conditioned on a constant (a replica's temperature, a
  window's band), decoding on the walkers' composition for canonical
  sampling.

Both are pooled (:class:`~repro.proposals.base.PooledProposal`):
candidates are drawn ahead of the chain and handed out one per row-step.

Composition:

- :class:`MixtureProposal` — random-scan mixture of reversible kernels
  (the paper mixes local refinement with global DL moves).
"""

from repro.proposals.base import (
    BatchMove,
    FieldBlock,
    Proposal,
)
from repro.proposals.local import (
    SwapProposal,
    NeighborSwapProposal,
    FlipProposal,
)
from repro.proposals.dl_vae import VAEProposal
from repro.proposals.dl_made import MADEProposal
from repro.proposals.mixture import MixtureProposal

__all__ = [
    "BatchMove",
    "FieldBlock",
    "Proposal",
    "SwapProposal",
    "NeighborSwapProposal",
    "FlipProposal",
    "VAEProposal",
    "MADEProposal",
    "MixtureProposal",
]
