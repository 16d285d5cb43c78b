"""Conditional-MADE global proposal — one model, many temperatures/windows.

With a *state-independent* conditioning vector (e.g. the replica's fixed
temperature) this is an exact independence sampler like
:class:`~repro.proposals.dl_made.MADEProposal`.

With *state-dependent* conditioning — e.g. conditioning on the walker's
current energy, the natural choice inside Wang-Landau windows — detailed
balance requires conditioning the reverse move on the *proposed* state::

    α = min(1, π(x')/π(x) · q(x | c(x')) / q(x' | c(x)))

Both densities are exact MADE evaluations, so the kernel stays exact (this
is the correction large-scale implementations are most likely to get wrong;
the test suite checks it by sampling a tiny system with an aggressively
state-dependent conditioner and comparing against enumeration).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.lattice.configuration import one_hot
from repro.nn.models.cmade import ConditionalMADE
from repro.nn.workspace import Workspace
from repro.proposals.base import BatchMove, Proposal
from repro.proposals.cache import CurrentLogQCache
from repro.proposals.composition import (
    COMPOSITION_MODES,
    composition_counts_rows,
    first_match_per_row,
    repair_composition,
)
from repro.util.validation import check_integer

__all__ = ["ConditionalMADEProposal"]


class ConditionalMADEProposal(Proposal):
    """Global proposal from a conditional autoregressive model.

    Parameters
    ----------
    model : ConditionalMADE
    conditioner : callable
        ``conditioner(config, energy) -> (cond_dim,) array``.  May depend on
        the state (see module docstring); for a fixed-temperature replica
        pass ``lambda config, energy: beta_encoding``.
    composition : {"free", "reject", "repair"}
    max_reject_tries : int
    """

    is_global = True

    def __init__(self, model: ConditionalMADE,
                 conditioner: Callable[[np.ndarray, float], np.ndarray],
                 composition: str = "reject", max_reject_tries: int = 64):
        if composition not in COMPOSITION_MODES:
            raise ValueError(
                f"composition must be one of {COMPOSITION_MODES}, got {composition!r}"
            )
        self.model = model
        self.conditioner = conditioner
        self.composition = composition
        self.max_reject_tries = check_integer("max_reject_tries", max_reject_tries, minimum=1)
        self.preserves_composition = composition != "free"
        self.name = f"cmade({composition})"
        # Keyed on (config, reverse-conditioning) bytes: with a
        # state-independent conditioner the reverse conditioning is
        # constant, so rejected steps hit the cache exactly like MADE; a
        # state-dependent conditioner changes the key with every candidate
        # and the cache degrades to correct misses.
        self._logq_cache = CurrentLogQCache()
        #: Pooled layer intermediates for the model's forwards
        #: (semantics-preserving — see :mod:`repro.nn.workspace`).
        self.workspace = Workspace()
        self.model.bind_workspace(self.workspace)

    def propose_many(self, configs, hamiltonian: Hamiltonian, rng,
                     current_energies=None) -> BatchMove:
        """Batched conditional inference: one pool draw + one reverse scoring.

        The conditioner itself stays a per-row Python call (it is arbitrary
        user code), but every model evaluation is batched: the candidate
        pool is one ``model.sample(B·tries)`` (or ``sample(B)``) pass with
        per-row conditioning, and all reverse densities — conditioned on
        each row's *proposed* state, as detailed balance requires — are one
        ``log_prob`` forward.
        """
        configs = np.atleast_2d(np.asarray(configs))
        B = configs.shape[0]
        n_species = self.model.config.n_species
        if current_energies is None:
            current_energies = hamiltonian.energies(configs)
        current_energies = np.asarray(current_energies, dtype=np.float64)
        cond_fwd = np.stack([
            np.asarray(self.conditioner(configs[b], float(current_energies[b])),
                       dtype=np.float64)
            for b in range(B)
        ])

        valid = None
        if self.composition == "free":
            candidates, logq_new = self.model.sample(B, cond_fwd, rng, return_log_prob=True)
        else:
            tries = self.max_reject_tries
            pool, pool_lp = self.model.sample(
                B * tries, np.repeat(cond_fwd, tries, axis=0), rng, return_log_prob=True
            )
            pool = pool.reshape(B, tries, -1)
            pool_lp = pool_lp.reshape(B, tries)
            targets = composition_counts_rows(configs, n_species)
            first, has = first_match_per_row(pool, targets)
            candidates = pool[np.arange(B), first]
            logq_new = pool_lp[np.arange(B), first].copy()
            miss = np.nonzero(~has)[0]
            if self.composition == "reject":
                if len(miss):
                    valid = has
                    candidates[miss] = configs[miss]  # no-op rows, never applied
                    logq_new[miss] = 0.0
            elif len(miss):
                repaired = np.stack([
                    repair_composition(pool[b, 0], targets[b], rng) for b in miss
                ])
                candidates[miss] = repaired
                logq_new[miss] = self.model.log_prob(
                    one_hot(repaired, n_species), cond_fwd[miss]
                )

        new_energies = hamiltonian.energies(candidates)
        cond_rev = np.stack([
            np.asarray(self.conditioner(candidates[b], float(new_energies[b])),
                       dtype=np.float64)
            if (valid is None or valid[b]) else cond_fwd[b]
            for b in range(B)
        ])
        extras = [CurrentLogQCache.key(cond_rev[b]) for b in range(B)]
        values, missing, keys = self._logq_cache.lookup_many(configs, extras=extras)
        if missing.any():
            fresh = self.model.log_prob(
                one_hot(configs[missing], n_species), cond_rev[missing]
            )
            self._logq_cache.store_many(keys, missing, values, fresh)
        logq_old = values

        delta = new_energies - current_energies
        log_q = logq_old - logq_new
        if valid is not None:
            delta[~valid] = 0.0
            log_q[~valid] = 0.0
        return BatchMove.global_update(configs, candidates, delta, log_q, valid=valid)

    def invalidate_cache(self) -> None:
        """Drop cached ``log q`` values (call after retraining the model)."""
        self._logq_cache.invalidate()
