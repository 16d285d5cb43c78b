"""Random-scan mixture of proposals.

DeepThermo's practical sampler mixes cheap local refinement with expensive
learned global jumps (e.g. 90% swaps / 10% VAE moves).  A random-scan
mixture of kernels that each satisfy detailed balance w.r.t. the target is
itself reversible, so the per-component acceptance rule (each component's
own ``log_q_ratio``) is exact — no cross-component density evaluation is
needed.  This requires the component choice to be made *independently of the
current state*, which it is: one array draw per block.

A mixture holds pooled independence proposals (MADE, VAE) and at most one
local kernel, and draws the choice for a whole block of super-steps at once
(:meth:`MixtureProposal.draw_fields`), so its teams step in the block engine
with the local ones.
"""

from __future__ import annotations

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.proposals.base import Proposal, draw_pooled

__all__ = ["MixtureProposal"]


class MixtureProposal(Proposal):
    """Pick a component proposal with fixed probabilities each step.

    Parameters
    ----------
    components : sequence of (Proposal, weight)
        Weights are normalized internally; all must be positive.  At most
        one component may be a local kernel; the others are pooled
        (:attr:`Proposal.pooled`).
    """

    def __init__(self, components):
        components = list(components)
        if not components:
            raise ValueError("MixtureProposal requires at least one component")
        self.proposals = [p for p, _w in components]
        local = [p.name for p in self.proposals if not p.pooled]
        if len(local) > 1:
            raise ValueError(f"a mixture holds at most one local kernel, got {local}")
        weights = np.array([float(w) for _p, w in components])
        if np.any(weights <= 0):
            raise ValueError(f"all mixture weights must be positive, got {weights}")
        self.weights = weights / weights.sum()
        self.preserves_composition = all(p.preserves_composition for p in self.proposals)
        self.is_global = any(p.is_global for p in self.proposals)
        self.name = "mix[" + ",".join(
            f"{p.name}:{w:.2f}" for p, w in zip(self.proposals, self.weights)
        ) + "]"
        self.counts = np.zeros(len(self.proposals), dtype=np.int64)

    def draw_fields(self, configs, hamiltonian: Hamiltonian, rng, n_steps=1):
        """A :class:`~repro.proposals.base.PooledBlock` of ``n_steps``
        super-steps.

        Draws, in order: the local component's fields for every row-step,
        the component choice per row-step (counted in :attr:`counts`), then
        each pooled component's candidates in row-step order.
        """
        pooled = [p.pooled for p in self.proposals]
        local = [k for k, is_pooled in enumerate(pooled) if not is_pooled]
        configs = np.atleast_2d(configs)
        fields = None
        if local:
            fields = self.proposals[local[0]].draw_fields(configs, hamiltonian, rng, n_steps)
        ks = rng.choice(len(self.proposals), size=(n_steps, configs.shape[0]), p=self.weights)
        self.counts += np.bincount(ks.ravel(), minlength=len(self.proposals))
        slot = np.cumsum(pooled) - 1  # component -> pooled slot; the local one -> -1
        slot[local] = -1
        return draw_pooled(slot[ks], [p for p, is_pooled in zip(self.proposals, pooled)
                                      if is_pooled], configs, hamiltonian, rng, fields)

    def invalidate_cache(self) -> None:
        """Forward cache invalidation to components that keep one."""
        for p in self.proposals:
            inv = getattr(p, "invalidate_cache", None)
            if inv is not None:
                inv()

    def component_fractions(self) -> np.ndarray:
        """Empirical fraction of steps each component served so far."""
        total = self.counts.sum()
        return self.counts / total if total else np.zeros_like(self.weights)
