"""Random-scan mixture of proposals.

DeepThermo's practical sampler mixes cheap local refinement with expensive
learned global jumps (e.g. 90% swaps / 10% VAE moves).  A random-scan
mixture of kernels that each satisfy detailed balance w.r.t. the target is
itself reversible, so the per-component acceptance rule (each component's
own ``log_q_ratio``) is exact — no cross-component density evaluation is
needed.  This requires the component choice to be made *independently of the
current state*, which is what :meth:`MixtureProposal.propose_many` does.

A mixture of pooled independence proposals (unconditioned MADE) and at most one
local kernel draws the choice for a whole block of super-steps at once
(:meth:`MixtureProposal.draw_fields`), so its teams step in the block engine
with the local ones; any other mixture steps through ``propose_many``.
"""

from __future__ import annotations

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.proposals.base import BatchMove, Proposal, draw_pooled

__all__ = ["MixtureProposal"]


class MixtureProposal(Proposal):
    """Pick a component proposal with fixed probabilities each step.

    Parameters
    ----------
    components : sequence of (Proposal, weight)
        Weights are normalized internally; all must be positive.
    """

    def __init__(self, components):
        components = list(components)
        if not components:
            raise ValueError("MixtureProposal requires at least one component")
        self.proposals = [p for p, _w in components]
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

    def propose_many(self, configs, hamiltonian: Hamiltonian, rng,
                     current_energies=None) -> BatchMove:
        """Draw a component per row, dispatch each group to its batched path.

        The component choice stays state-independent (one array draw up
        front), so the random-scan reversibility argument is unchanged.  Rows
        assigned the same component are proposed in **one** ``propose_many``
        call on that component — a team of B walkers costs at most
        ``len(self.proposals)`` batched sub-calls (and typically one DL
        forward-pass group per DL component).
        """
        configs = np.atleast_2d(np.asarray(configs))
        B = configs.shape[0]
        if current_energies is not None:
            current_energies = np.asarray(current_energies, dtype=np.float64)
        ks = rng.choice(len(self.proposals), size=B, p=self.weights)
        self.counts += np.bincount(ks, minlength=len(self.proposals))

        sub: list[tuple[np.ndarray, BatchMove]] = []
        k_max = 1
        for comp in range(len(self.proposals)):
            rows = np.nonzero(ks == comp)[0]
            if not len(rows):
                continue
            move = self.proposals[comp].propose_many(
                configs[rows], hamiltonian, rng,
                current_energies=None if current_energies is None
                else current_energies[rows],
            )
            sub.append((rows, move))
            k_max = max(k_max, move.sites.shape[1])

        sites = np.zeros((B, k_max), dtype=np.int64)
        new_values = np.zeros((B, k_max), dtype=configs.dtype)
        delta = np.zeros(B, dtype=np.float64)
        log_q = np.zeros(B, dtype=np.float64)
        valid = np.zeros(B, dtype=bool)
        for rows, move in sub:
            width = move.sites.shape[1]
            sites[rows, :width] = move.sites
            new_values[rows, :width] = move.new_values
            if width < k_max:
                # Narrow sub-batches keep the documented pad semantics:
                # repeat each row's first (site, value) pair.
                sites[rows, width:] = move.sites[:, :1]
                new_values[rows, width:] = move.new_values[:, :1]
            delta[rows] = move.delta_energies
            log_q[rows] = move.log_q_ratios
            valid[rows] = True if move.valid is None else move.valid
        return BatchMove(
            sites=sites, new_values=new_values, delta_energies=delta,
            log_q_ratios=log_q, valid=None if valid.all() else valid,
        )

    def draw_fields(self, configs, hamiltonian: Hamiltonian, rng, n_steps=1):
        """A :class:`~repro.proposals.base.PooledBlock` when at least one
        component is pooled (:attr:`Proposal.pooled`) and the others are at
        most one local kernel that draws a field block; None, drawing
        nothing, otherwise.

        Draws, in order: the local component's fields for every row-step,
        the component choice per row-step (counted in :attr:`counts`), then
        each pooled component's candidates in row-step order.
        """
        pooled = [p.pooled for p in self.proposals]
        local = [k for k, is_pooled in enumerate(pooled) if not is_pooled]
        if len(local) > 1 or not any(pooled) or any(
                self.proposals[k].is_global for k in local):
            return None
        configs = np.atleast_2d(configs)
        fields = None
        if local:
            fields = self.proposals[local[0]].draw_fields(configs, hamiltonian, rng, n_steps)
            if fields is None:
                return None
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
