"""MADE global proposal with *exact* proposal densities.

The autoregressive factorization gives ``log q(x)`` in closed form, so the
Metropolis–Hastings correction carries no estimator noise — this proposal is
the exactness cross-check for :class:`~repro.proposals.dl_vae.VAEProposal`
(on small exactly-enumerable systems the MADE-driven chain must reproduce
the Boltzmann distribution to statistical tolerance; see
``tests/test_dl_proposals.py`` and the batched variant in
``tests/test_dl_batched.py``).

Composition.  In ``composition="fixed"`` (the default, for canonical alloy
sampling) the model decodes masked to the species counts of the rows it
steps (:meth:`~repro.nn.models.made.MADE.sample` with ``counts``): every
candidate has that exact composition and carries the exact ``log q`` of the
masked model, so every candidate is a valid move.  ``"free"`` decodes the
plain model, for kernels that may change the composition (Ising/Potts).

Pooled candidates.  An independence proposal's candidates depend on nothing
in the chain but the composition, which every move keeps, and one
``MADE.sample`` call costs ``n_sites`` decoding steps whose NumPy fixed
cost ignores the row count, so candidates are drawn ahead, a block at a
time: when the :class:`~repro.proposals.cache.CandidatePool` runs dry,
**one** ``model.sample(rows, rng, return_log_prob=True, counts=...)`` call
refills it and **one** ``hamiltonian.energies(pool)`` call prices the
block.  :meth:`~MADEProposal.propose_many` hands out consecutive rows with
the ``log q`` and energy they already carry; a row is handed out once.
Pre-drawn i.i.d. rows of ``q`` *are* the independence sampler, so detailed
balance is untouched.  What depends on the chain stays at consume time:
``log q`` of the current configuration, cached per walker
(:class:`~repro.proposals.cache.CurrentLogQCache`): rejected steps leave a
configuration unchanged, so it is re-scored only after an accepted move
(its content key changes).

The pool is ordinary proposal state.  It pickles with the sampler (REWL
checkpoints, supervisor snapshots, shm ranks) and a restored sampler
continues with the very next row; :meth:`MADEProposal.invalidate_cache`
drops it together with the ``log q`` cache, because rows drawn from the old
weights are not samples of the retrained ``q``.  A refill draws from the
``rng`` of the call that found the pool dry, so a trajectory is still a pure
function of seed and call sequence, and B one-row calls and one B-row call
hand out the same candidates in the same order.  Rows carry the energy of
the Hamiltonian that priced them; the pool keeps a reference to it and
re-prices its energy column when a call brings another one (no draw, so the
candidate stream is unchanged).  It records the composition it was drawn
for the same way, and drops its rows when a call brings rows of another.

An unconditioned proposal is *pooled* (:attr:`MADEProposal.pooled`):
:meth:`~MADEProposal.draw_fields` hands a whole block's candidates, one per
row-step, to the block engine as a :class:`~repro.proposals.base.PooledBlock`
(a mixture does the same for its row-steps), and the engine scores only the
rows whose current log q it does not already hold (DESIGN.md §16).  With the
compiled super-step loaded it scores them in C, on both block paths, from
:meth:`~MADEProposal.native_scorer`'s view of the masked weights; without
it, through :meth:`~MADEProposal.log_q_current`.  The views live in a
module-level weak map, never on the proposal (they hold pointers, which
no checkpoint, snapshot or shm rank could pickle), and
:meth:`~MADEProposal.invalidate_cache` drops them with the pool.

Conditioned proposals.  With a conditioned model (``cond_dim > 0``) a
``conditioner(config, energy)`` gives each row its condition, so one model
serves every temperature or energy window.  A condition that does not
depend on the state (a replica's fixed temperature) keeps the kernel an
exact independence sampler.  A state-dependent one (the walker's current
energy, the natural choice inside Wang–Landau windows) needs the reverse
move conditioned on the *proposed* state for detailed balance::

    α = min(1, π(x')/π(x) · q(x | c(x')) / q(x' | c(x)))

Both densities are exact MADE evaluations, so the kernel stays exact.
Candidates then depend on the current row through ``c(x)``, so a
conditioned proposal draws them fresh per call — one
``model.sample(rows, rng, cond=..., counts=...)`` — and is not pooled; the
``log q`` cache keys carry the reverse condition's bytes (a
state-independent conditioner keeps them constant, so rejected steps still
hit).
"""

from __future__ import annotations

from typing import Callable
from weakref import WeakKeyDictionary

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.kernels.superstep import MadeView
from repro.lattice.configuration import composition_counts, one_hot
from repro.nn.models.made import MADE
from repro.nn.workspace import Workspace
from repro.proposals.base import BatchMove, Proposal, draw_pooled
from repro.proposals.cache import CandidatePool, CurrentLogQCache

__all__ = ["MADEProposal"]

#: Rows one pool refill draws.  Per-row sampling cost flattens out near a
#: thousand rows (109 us at 10 rows, 12 us at 1024 on the reference box).
_POOL_ROWS = 1024
#: ...capped so that ``MADE.sample``'s float64 buffers stay within this many
#: bytes on wide models: per row, three of the first hidden width (its
#: pre-activation, that ReLU and the drawn weight rows) and one activation
#: of each deeper hidden layer.
_POOL_SCRATCH_BYTES = 8 << 20

#: MADEProposal -> {composition (None: free): MadeView}, built on a
#: proposal's first native scoring; see the module docstring.
_NATIVE_VIEWS: WeakKeyDictionary = WeakKeyDictionary()


class MADEProposal(Proposal):
    """Independence sampler driven by a MADE model.

    Parameters
    ----------
    model : MADE
    composition : {"fixed", "free"}
        ``"fixed"`` decodes on the composition of the rows being stepped
        (all rows of one call must share it); ``"free"`` ignores
        composition.
    conditioner : callable, optional
        ``conditioner(config, energy) -> (cond_dim,) array``, required by a
        conditioned model and refused by an unconditioned one.  May depend
        on the state (see the module docstring); for a fixed-temperature
        replica pass ``lambda config, energy: beta_encoding``.
    """

    is_global = True

    def __init__(self, model: MADE, composition: str = "fixed",
                 conditioner: Callable[[np.ndarray, float], np.ndarray] | None = None):
        if composition not in ("fixed", "free"):
            raise ValueError(f"composition must be 'fixed' or 'free', got {composition!r}")
        if (conditioner is None) != (model.config.cond_dim == 0):
            raise ValueError(
                "a conditioner goes with a conditioned model (cond_dim > 0) and only "
                f"with one; got cond_dim={model.config.cond_dim}, conditioner={conditioner!r}"
            )
        self.model = model
        self.composition = composition
        self.conditioner = conditioner
        self.preserves_composition = composition == "fixed"
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
        """The next B pool rows as candidates, with their carried ``log q``
        and energy, one scoring forward for the stale current rows, and no
        model sampling unless the pool ran dry.

        With a conditioner the rows are one fresh ``model.sample`` under
        each row's ``c(x)`` instead, priced in one batched energy
        evaluation, and the reverse densities one ``log_prob`` under each
        row's ``c(x')``.
        """
        configs = np.atleast_2d(np.asarray(configs))
        if current_energies is None:
            current_energies = hamiltonian.energies(configs)
        current_energies = np.asarray(current_energies, dtype=np.float64)
        cond_rev = None
        if self.conditioner is None:
            candidates, logq_new, new_energies = self.take_candidates(
                configs, len(configs), hamiltonian, rng)
        else:
            candidates, logq_new = self.model.sample(
                len(configs), rng, return_log_prob=True,
                cond=self._conditions(configs, current_energies),
                counts=self._counts(configs))
            new_energies = hamiltonian.energies(candidates)
            cond_rev = self._conditions(candidates, new_energies)
        logq_old = self.log_q_current(configs, cond_rev)
        return BatchMove.global_update(configs, candidates, new_energies - current_energies,
                                       logq_old - logq_new)

    def _counts(self, configs) -> np.ndarray | None:
        """The species counts every row of ``configs`` shares in
        ``"fixed"`` (ValueError if they differ); None in ``"free"``."""
        if self.composition == "free":
            return None
        if (np.sort(configs, axis=1) != np.sort(configs[0])).any():
            raise ValueError("composition='fixed' steps rows of one composition at a time")
        return composition_counts(configs[0], self.model.config.n_species)

    def _conditions(self, configs, energies) -> np.ndarray:
        """The conditioner per row (arbitrary user code, so a Python loop)."""
        return np.stack([
            np.asarray(self.conditioner(config, float(energy)), dtype=np.float64)
            for config, energy in zip(configs, energies)
        ])

    @property
    def pooled(self) -> bool:
        """Without a conditioner (whose candidates depend on the current
        row), of this class itself: a subclass may override
        :meth:`propose_many`, and the block path would silently bypass
        it."""
        return type(self) is MADEProposal and self.conditioner is None

    def draw_fields(self, configs, hamiltonian: Hamiltonian, rng, n_steps=1):
        """A :class:`~repro.proposals.base.PooledBlock` of the next
        ``n_steps × B`` pool rows, one per row-step; None, drawing nothing,
        unless :attr:`pooled`."""
        if not self.pooled:
            return None
        configs = np.atleast_2d(configs)
        choice = np.zeros((n_steps, configs.shape[0]), dtype=np.int64)
        return draw_pooled(choice, [self], configs, hamiltonian, rng)

    def log_q_current(self, configs: np.ndarray, cond=None) -> np.ndarray:
        """log q of current configurations (under ``cond``, one row each,
        for a conditioned model): cached ones from the content-keyed cache,
        the rest in one scoring forward."""
        extras = None if cond is None else [CurrentLogQCache.key(row) for row in cond]
        values, missing, keys = self._logq_cache.lookup_many(configs, extras=extras)
        if missing.any():
            fresh = self.model.log_prob(
                one_hot(configs[missing], self.model.config.n_species),
                None if cond is None else cond[missing],
                self._counts(configs[missing]),
            )
            self._logq_cache.store_many(keys, missing, values, fresh)
        return values

    def native_scorer(self, configs) -> MadeView | None:
        """The compiled scorer's view of the masked model for rows like
        ``configs`` (their composition in ``"fixed"``), built once per
        composition until :meth:`invalidate_cache`; None for a subclass or
        a conditioned model, which keep :meth:`log_q_current`."""
        if type(self) is not MADEProposal or self.conditioner is not None:
            return None
        counts = self._counts(configs)
        key = None if counts is None else tuple(counts.tolist())
        views = _NATIVE_VIEWS.setdefault(self, {})
        view = views.get(key)
        if view is None:
            c, dense = self.model.config, self.model.net.layers[::2]
            view = views[key] = MadeView(
                c.n_sites, c.n_species, [layer.effective_weight() for layer in dense],
                [layer.bias.value for layer in dense], counts)
        return view

    def take_candidates(self, configs, n: int, hamiltonian: Hamiltonian, rng) -> tuple:
        """The next ``n`` pool rows of an unconditioned model for rows like
        ``configs``: ``(candidates, log q, energies)``, priced by
        ``hamiltonian`` (a pool priced by another is re-priced first) and,
        in ``"fixed"``, on the composition of ``configs`` (a pool drawn for
        another is dropped first)."""
        pool = self._pool
        counts = self._counts(configs)
        drawn_for = None if counts is None else tuple(counts.tolist())
        if pool.drawn_for != drawn_for:
            pool.drop()
            pool.drawn_for = drawn_for

        def refill():
            c = self.model.config
            row_bytes = 8 * (3 * c.hidden[0] + sum(c.hidden[1:]))
            rows = max(1, min(_POOL_ROWS, _POOL_SCRATCH_BYTES // row_bytes))
            block = self.model.sample(rows, rng, return_log_prob=True, counts=counts)
            return block + (hamiltonian.energies(block[0]),)

        if pool.cursor < pool.size and pool.priced_by is not hamiltonian:
            candidates, log_q, _ = pool.columns
            pool.columns = (candidates, log_q, hamiltonian.energies(candidates))
        pool.priced_by = hamiltonian
        return pool.take(n, refill)

    def invalidate_cache(self) -> None:
        """Drop cached ``log q`` values, the pooled candidates and the
        compiled scorer's views, all of which belong to the old weights
        (call after retraining the model)."""
        self._logq_cache.invalidate()
        self._pool.drop()
        _NATIVE_VIEWS.pop(self, None)
