"""MADE global proposal with *exact* proposal densities.

The autoregressive factorization gives ``log q(x)`` in closed form, so the
Metropolis–Hastings correction carries no estimator noise — this proposal is
the exactness cross-check for :class:`~repro.proposals.dl_vae.VAEProposal`
(on small exactly-enumerable systems the MADE-driven chain must reproduce
the Boltzmann distribution to statistical tolerance; see
``tests/test_dl_proposals.py`` and the batched variant in
``tests/test_dl_batched.py``).

Pooled candidates.  An independence proposal's candidates depend on nothing
in the chain, and one ``MADE.sample`` call costs ``n_sites`` full-network
forwards whose NumPy fixed cost ignores the row count, so candidates are
drawn ahead, a block at a time: when the
:class:`~repro.proposals.cache.CandidatePool` runs dry, **one**
``model.sample(rows, rng, return_log_prob=True)`` call refills it and, in
``composition="free"`` (every row is a usable candidate), **one**
``hamiltonian.energies(pool)`` call prices the block.
:meth:`~MADEProposal.propose_many` hands out consecutive rows with the
``log q`` (and energy) they already carry; a row is handed out once.
Pre-drawn i.i.d. rows of ``q`` *are* the independence sampler, so detailed
balance is untouched.  What depends on the chain stays at consume time:

- ``"reject"`` / ``"repair"``: each proposing row scans its own
  ``max_reject_tries`` consecutive pool rows for the first one on its
  composition manifold; ``"repair"`` projects the first of them when none
  matches and re-scores the projection; the chosen candidates are priced
  with one ``hamiltonian.energies`` call per batch;
- ``log q`` of the current configuration, cached per walker
  (:class:`~repro.proposals.cache.CurrentLogQCache`): rejected steps leave
  a configuration unchanged, so it is re-scored only after an accepted move
  (its content key changes).

The pool is ordinary proposal state.  It pickles with the sampler (REWL
checkpoints, supervisor snapshots, shm ranks) and a restored sampler
continues with the very next row; :meth:`MADEProposal.invalidate_cache`
drops it together with the ``log q`` cache, because rows drawn from the old
weights are not samples of the retrained ``q``.  A refill draws from the
``rng`` of the call that found the pool dry, so a trajectory is still a pure
function of seed and call sequence, and B one-row calls and one B-row call
hand out the same candidates in the same order.  (In ``"repair"`` the
projection draws from ``rng`` after the call's refills; the two agree there
whenever no refill falls inside the B-row call, e.g. always when
``B * max_reject_tries`` divides the block.)
``"free"`` rows carry the energy of the Hamiltonian that priced them; the
pool keeps a reference to it and re-prices its energy column when a call
brings another one (no draw, so the candidate stream is unchanged).

In ``"free"`` mode the proposal is *pooled* (:attr:`MADEProposal.pooled`):
:meth:`~MADEProposal.draw_fields` hands a whole block's candidates, one per
row-step, to the block engine as a :class:`~repro.proposals.base.PooledBlock`
(a mixture does the same for its row-steps), and the engine asks
:meth:`~MADEProposal.log_q_current` only for the rows whose current log q it
does not already hold (DESIGN.md §16).
"""

from __future__ import annotations

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.lattice.configuration import one_hot
from repro.nn.models.made import MADE
from repro.nn.workspace import Workspace
from repro.proposals.base import BatchMove, Proposal, draw_pooled
from repro.proposals.cache import CandidatePool, CurrentLogQCache
from repro.proposals.composition import (
    COMPOSITION_MODES,
    composition_counts_rows,
    first_match_per_row,
    repair_composition,
)
from repro.util.validation import check_integer

__all__ = ["MADEProposal"]

#: Rows one pool refill draws.  Per-row sampling cost flattens out near a
#: thousand rows (109 us at 10 rows, 12 us at 1024 on the reference box).
_POOL_ROWS = 1024
#: ...capped so that ``MADE.sample``'s float64 one-hot scratch, ``rows x
#: n_sites x n_species``, stays within this many bytes on large cells.
_POOL_SCRATCH_BYTES = 8 << 20


class MADEProposal(Proposal):
    """Independence sampler driven by a MADE model.

    Parameters
    ----------
    model : MADE
    composition : {"free", "reject", "repair"}
        ``"reject"`` keeps the kernel exact (constant restriction mass
        cancels); ``"repair"`` trades exactness for acceptance like the VAE
        (see :mod:`repro.proposals.composition`).
    max_reject_tries : int
        Consecutive pool rows each proposing row scans in ``"reject"`` and
        ``"repair"``.
    """

    is_global = True

    def __init__(self, model: MADE, composition: str = "reject", max_reject_tries: int = 64):
        if composition not in COMPOSITION_MODES:
            raise ValueError(
                f"composition must be one of {COMPOSITION_MODES}, got {composition!r}"
            )
        self.model = model
        self.composition = composition
        self.max_reject_tries = check_integer("max_reject_tries", max_reject_tries, minimum=1)
        self.preserves_composition = composition != "free"
        self.name = f"made({composition})"
        self._logq_cache = CurrentLogQCache()
        self._pool = CandidatePool()
        #: Pooled layer intermediates for the model's forwards (sampling,
        #: scoring, and training all reuse the same shape-keyed buffers;
        #: binding is semantics-preserving — see :mod:`repro.nn.workspace`).
        self.workspace = Workspace()
        self.model.bind_workspace(self.workspace)

    def propose_many(self, configs, hamiltonian: Hamiltonian, rng,
                     current_energies=None) -> BatchMove:
        """The next pool rows as B candidates, one scoring forward for the
        stale current rows, and no model sampling unless the pool ran dry.

        ``"free"`` hands out B rows with their carried ``log q`` and energy;
        ``"reject"``/``"repair"`` hand out ``B·tries`` rows, ``tries`` per
        row with first-match assignment, and price the chosen candidates in
        one batched energy evaluation.
        """
        configs = np.atleast_2d(np.asarray(configs))
        B = configs.shape[0]
        valid = None

        if self.composition == "free":
            candidates, logq_new, new_energies = self.take_candidates(B, hamiltonian, rng)
        else:
            n_species = self.model.config.n_species
            tries = self.max_reject_tries
            pool, pool_lp = self.take_candidates(B * tries, hamiltonian, rng)
            pool = pool.reshape(B, tries, -1)
            pool_lp = pool_lp.reshape(B, tries)
            targets = composition_counts_rows(configs, n_species)
            first, has = first_match_per_row(pool, targets)
            rows = np.arange(B)
            candidates = pool[rows, first]
            logq_new = pool_lp[rows, first]
            miss = np.nonzero(~has)[0]
            if self.composition == "reject":
                if len(miss):
                    valid = has
                    candidates[miss] = configs[miss]  # no-op rows, never applied
            elif len(miss):
                repaired = np.stack([
                    repair_composition(pool[b, 0], targets[b], rng) for b in miss
                ])
                candidates[miss] = repaired
                logq_new[miss] = self.model.log_prob(one_hot(repaired, n_species))
            new_energies = hamiltonian.energies(candidates)

        logq_old = self.log_q_current(configs)
        if current_energies is None:
            current_energies = hamiltonian.energies(configs)
        delta = new_energies - np.asarray(current_energies, dtype=np.float64)
        log_q = logq_old - logq_new
        if valid is not None:
            delta[~valid] = 0.0
            log_q[~valid] = 0.0
        return BatchMove.global_update(configs, candidates, delta, log_q, valid=valid)

    @property
    def pooled(self) -> bool:
        """``"free"`` mode, where every pool row is a candidate, of this
        class itself: a subclass may override :meth:`propose_many`, and the
        block path would silently bypass it."""
        return type(self) is MADEProposal and self.composition == "free"

    def draw_fields(self, configs, hamiltonian: Hamiltonian, rng, n_steps=1):
        """A :class:`~repro.proposals.base.PooledBlock` of the next
        ``n_steps × B`` pool rows, one per row-step; None, drawing nothing,
        unless :attr:`pooled`."""
        if not self.pooled:
            return None
        choice = np.zeros((n_steps, np.atleast_2d(configs).shape[0]), dtype=np.int64)
        return draw_pooled(choice, [self], hamiltonian, rng)

    def log_q_current(self, configs: np.ndarray) -> np.ndarray:
        """log q of current configurations: cached ones from the
        content-keyed cache, the rest in one scoring forward."""
        values, missing, keys = self._logq_cache.lookup_many(configs)
        if missing.any():
            fresh = self.model.log_prob(
                one_hot(configs[missing], self.model.config.n_species)
            )
            self._logq_cache.store_many(keys, missing, values, fresh)
        return values

    def take_candidates(self, n: int, hamiltonian: Hamiltonian, rng) -> tuple:
        """The next ``n`` pool rows: ``(configs, log q)``, and in ``"free"``,
        where every row is a candidate, ``energies`` — priced by
        ``hamiltonian`` (a pool priced by another is re-priced first)."""
        pool = self._pool

        def refill():
            c = self.model.config
            rows = max(1, min(_POOL_ROWS, _POOL_SCRATCH_BYTES // (8 * c.input_dim)))
            block = self.model.sample(rows, rng, return_log_prob=True)
            if self.composition == "free":
                block += (hamiltonian.energies(block[0]),)
            return block

        if self.composition == "free":
            if pool.cursor < pool.size and pool.priced_by is not hamiltonian:
                candidates, log_q, _ = pool.columns
                pool.columns = (candidates, log_q, hamiltonian.energies(candidates))
            pool.priced_by = hamiltonian
        return pool.take(n, refill)

    def invalidate_cache(self) -> None:
        """Drop cached ``log q`` values and the pooled candidates, both of
        which belong to the old weights (call after retraining the model)."""
        self._logq_cache.invalidate()
        self._pool.drop()
