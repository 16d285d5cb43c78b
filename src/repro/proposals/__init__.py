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
- :class:`FlipProposal` — single-site mutation (grand canonical; Ising/Potts),
- :class:`MultiSwapProposal` — k simultaneous swaps.

Learned global proposals:

- :class:`VAEProposal` — decode a fresh latent draw (paper's model);
  proposal density estimated by importance sampling,
- :class:`MADEProposal` — autoregressive model with *exact* density,
  optionally conditioned on the walker's temperature or energy window,
- both support composition handling modes for canonical sampling.

Composition:

- :class:`MixtureProposal` — random-scan mixture of reversible kernels
  (the paper mixes local refinement with global DL moves).
"""

from repro.proposals.base import (
    BatchMove,
    FieldBlock,
    Proposal,
)
from repro.proposals.cache import CurrentLogQCache
from repro.proposals.local import (
    SwapProposal,
    NeighborSwapProposal,
    FlipProposal,
    MultiSwapProposal,
)
from repro.proposals.dl_vae import VAEProposal
from repro.proposals.dl_made import MADEProposal
from repro.proposals.mixture import MixtureProposal

__all__ = [
    "BatchMove",
    "FieldBlock",
    "Proposal",
    "CurrentLogQCache",
    "SwapProposal",
    "NeighborSwapProposal",
    "FlipProposal",
    "MultiSwapProposal",
    "VAEProposal",
    "MADEProposal",
    "MixtureProposal",
]
