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
time (:class:`~repro.proposals.base.PooledProposal`): when the
:class:`~repro.proposals.cache.CandidatePool` runs dry, **one**
``model.sample(rows, rng, return_log_prob=True, cond=..., counts=...)``
call refills it and **one** ``hamiltonian.energies(pool)`` call prices the
block.  Each row-step of a block takes the next row with the ``log q`` and
energy it already carries; a row is handed out once.  Pre-drawn i.i.d.
rows of ``q`` *are* the independence sampler, so detailed balance is
untouched.  What depends on the chain stays with the block engine: ``log
q`` of the current configuration, which a row holds from the step it is
scored (or accepts a candidate) until it takes a local move (DESIGN.md
§16).

The pool is ordinary proposal state.  It pickles with the sampler (REWL
checkpoints, supervisor snapshots, shm ranks) and a restored sampler
continues with the very next row; :meth:`MADEProposal.invalidate_cache`
drops it, because rows drawn from the old weights are not samples of the
retrained ``q``.  A refill draws from the ``rng`` of the call that found
the pool dry, so a trajectory is still a pure function of seed and call
sequence, and B one-row calls and one B-row call hand out the same
candidates in the same order.  Rows carry the energy of the Hamiltonian
that priced them; the pool keeps a reference to it and re-prices its
energy column when a call brings another one (no draw, so the candidate
stream is unchanged).  It records the composition it was drawn for the
same way, and drops its rows when a call brings rows of another.

With the compiled super-step loaded the block engine scores current rows
in C, on both block paths, from :meth:`~MADEProposal.native_scorer`'s view
of the masked weights; without it, through
:meth:`~MADEProposal.log_q_current`.  The views live in a module-level weak
map, never on the proposal (they hold pointers, which no checkpoint,
snapshot or shm rank could pickle), and
:meth:`~MADEProposal.invalidate_cache` drops them with the pool.

Conditioned proposals.  With a conditioned model (``cond_dim > 0``) the
proposal is built with one condition vector ``cond`` — a replica's β, a
REWL window's band — so one model serves every temperature or energy
window.  The condition is a constant of the proposal, so the kernel is the
exact independence sampler of ``q(· | cond)`` and pools like any other.
The condition enters only the first ``Dense`` layer, so the compiled
scorer's view folds ``cond @ W₀[x_dim:]`` into that layer's bias.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

import numpy as np

from repro.kernels.superstep import MadeView
from repro.lattice.configuration import one_hot
from repro.nn.models.made import MADE
from repro.nn.workspace import Workspace
from repro.proposals.base import PooledProposal
from repro.proposals.cache import CandidatePool

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


class MADEProposal(PooledProposal):
    """Independence sampler driven by a MADE model.

    Parameters
    ----------
    model : MADE
    composition : {"fixed", "free"}
        ``"fixed"`` decodes on the composition of the rows being stepped
        (all rows of one call must share it); ``"free"`` ignores
        composition.
    cond : array of shape (cond_dim,), optional
        The condition, required by a conditioned model and refused by an
        unconditioned one (see the module docstring).
    """

    def __init__(self, model: MADE, composition: str = "fixed", cond=None):
        if composition not in ("fixed", "free"):
            raise ValueError(f"composition must be 'fixed' or 'free', got {composition!r}")
        cond_dim = model.config.cond_dim
        if (cond is None) != (cond_dim == 0):
            raise ValueError(
                "a condition goes with a conditioned model (cond_dim > 0) and only "
                f"with one; got cond_dim={cond_dim}, cond={cond!r}"
            )
        if cond is not None:
            cond = np.array(cond, dtype=np.float64)
            if cond.shape != (cond_dim,):
                raise ValueError(f"cond must have shape ({cond_dim},), got {cond.shape}")
        self.model = model
        self.composition = composition
        self.cond = cond
        self.preserves_composition = composition == "fixed"
        self.name = f"made({composition})"
        self._pool = CandidatePool()
        #: Pooled layer intermediates for the model's forwards (sampling,
        #: scoring, and training all reuse the same shape-keyed buffers;
        #: binding is semantics-preserving — see :mod:`repro.nn.workspace`).
        self.workspace = Workspace()
        self.model.bind_workspace(self.workspace)

    def _draw_block(self, configs, counts, rng) -> tuple:
        """One pool block: ``model.sample`` of as many rows as the scratch
        budget allows, with their exact log q."""
        c = self.model.config
        row_bytes = 8 * (3 * c.hidden[0] + sum(c.hidden[1:]))
        rows = max(1, min(_POOL_ROWS, _POOL_SCRATCH_BYTES // row_bytes))
        return self.model.sample(rows, rng, return_log_prob=True, cond=self.cond,
                                 counts=counts)

    def log_q_current(self, configs: np.ndarray, rng=None) -> np.ndarray:
        """Exact log q of current configurations, in one scoring forward
        (draws nothing)."""
        return self.model.log_prob(one_hot(configs, self.model.config.n_species),
                                   self.cond, self._counts(configs))

    def native_scorer(self, configs) -> MadeView | None:
        """The compiled scorer's view of the masked model for rows like
        ``configs`` (their composition in ``"fixed"``), built once per
        composition until :meth:`invalidate_cache`; None for a subclass,
        which keeps :meth:`log_q_current`."""
        if type(self) is not MADEProposal:
            return None
        counts = self._counts(configs)
        key = None if counts is None else tuple(counts.tolist())
        views = _NATIVE_VIEWS.setdefault(self, {})
        view = views.get(key)
        if view is None:
            c, dense = self.model.config, self.model.net.layers[::2]
            weights = [layer.effective_weight() for layer in dense]
            biases = [layer.bias.value for layer in dense]
            if self.cond is not None:  # a constant input: part of the first bias
                biases[0] = biases[0] + self.cond @ weights[0][c.x_dim:]
                weights[0] = weights[0][:c.x_dim]
            view = views[key] = MadeView(c.n_sites, c.n_species, weights, biases, counts)
        return view

    def invalidate_cache(self) -> None:
        """Drop the pooled candidates and the compiled scorer's views, both
        of which belong to the old weights (call after retraining the
        model)."""
        super().invalidate_cache()
        _NATIVE_VIEWS.pop(self, None)
