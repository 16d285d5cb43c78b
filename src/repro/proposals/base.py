"""Proposal interface: every move is proposed as a batch, drawn as a block.

A proposal inspects a ``(B, n_sites)`` batch of configurations and returns a
:class:`BatchMove`: per row, the sites to change, their new species, the
energy change, and the log proposal-density ratio.  Samplers decide
acceptance and write accepted rows — proposals never mutate the
configurations themselves.  Every proposal draws the randomness of many
super-steps at once (:meth:`Proposal.draw_fields`): a local kernel as a
:class:`FieldBlock`, an independence proposal (:class:`PooledProposal`:
MADE, VAE) and a mixture of them with at most one local kernel as a
:class:`PooledBlock` of pre-drawn candidates.  :meth:`Proposal.propose_many`
is the one-step block.

Contracts, per row (property-tested in ``tests/test_proposals.py``):

- ``delta_energies`` equals ``H(x') − H(x)`` to roundoff,
- ``log_q_ratios = log q(x|x') − log q(x'|x)`` (0 for symmetric kernels;
  −inf for a candidate that must be rejected, such as a ``"reject"``-mode
  VAE slot that never hit the composition),
- composition-preserving proposals never change species counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.lattice.configuration import composition_counts

__all__ = ["BatchMove", "FieldBlock", "PooledBlock", "PooledProposal", "Proposal",
           "draw_pooled"]


@dataclass
class BatchMove:
    """One proposed transition per row of a configuration batch.

    The multi-walker stepping shape: row ``b`` is an independent walker, and
    the arrays below describe its proposed move ``x_b → x'_b``.  Produced by
    :meth:`Proposal.propose_many`.

    Attributes
    ----------
    sites : numpy.ndarray of shape (B, k)
        Per-row indices of the sites whose species change.  ``k`` is the
        widest move in the batch; rows whose move touches fewer than ``k``
        sites are **padded by repeating their first (site, value) pair** —
        an idempotent re-write of a site the move already sets, so applying
        a padded row is a plain gather-scatter with no mask.  Consumers
        that need the true move width should not infer it from ``k``;
        global proposals always use ``k == n_sites``.
    new_values : numpy.ndarray of shape (B, k)
        New species at those sites (padded in lockstep with ``sites``).
    delta_energies : numpy.ndarray of shape (B,)
        ``H(x'_b) − H(x_b)`` per row.
    log_q_ratios : numpy.ndarray of shape (B,)
        Per-row ``log q(x|x') − log q(x'|x)``.
    """

    sites: np.ndarray
    new_values: np.ndarray
    delta_energies: np.ndarray
    log_q_ratios: np.ndarray

    @property
    def batch_size(self) -> int:
        return int(self.delta_energies.shape[0])

    def apply_row(self, b: int, config: np.ndarray) -> None:
        """Write row ``b``'s move into ``config`` in place."""
        config[self.sites[b]] = self.new_values[b]


class FieldBlock:
    """The randomness of ``n`` super-steps of a local kernel.

    :meth:`Proposal.draw_fields` fills ``arrays`` (each ``(n, B, ...)``:
    step-major, one row per walker) from the team's stream in a few array
    calls; nothing in them depends on the configurations.  Each super-step
    then *resolves* its slice against the current configurations.  Flips
    draw their whole block here; a swap block
    (:class:`~repro.proposals.local.SwapBlock`) holds no arrays and draws
    each step's pairs from the teams' streams as it resolves.  Blocks with
    equal :attr:`key` (type, params and the per-row shape of each array)
    are stacked along the row axis, so one resolve and one
    ``delta_energy_*_many`` gather serve every window of a campaign.
    """

    many = ""  # name of the Hamiltonian's ``*_many`` kernel pricing a move

    def __init__(self, *arrays: np.ndarray, **params):
        self.arrays, self.params = arrays, params

    @property
    def key(self) -> tuple:
        return (type(self), *(a.shape[2:] for a in self.arrays),
                *sorted(self.params.items()))

    def stacked(self, blocks) -> "FieldBlock":
        """This block followed by ``blocks`` (same key) along the row axis."""
        columns = zip(self.arrays, *(f.arrays for f in blocks))
        return type(self)(*(np.concatenate(c, axis=1) for c in columns),
                          **self.params)

    def resolve(self, step: int, configs: np.ndarray, rows: np.ndarray,
                streams) -> np.ndarray:
        """Super-step ``step``'s fields as moves on the current ``configs``.

        Returns a ``(B, 2)`` array whose two columns are what the ``many``
        kernel prices.  ``streams`` lists ``(rng, row_lo, row_hi)`` per
        team, for kernels that draw as they resolve (the swap block).
        """
        raise NotImplementedError

    def moves(self, configs: np.ndarray, rows: np.ndarray, move: np.ndarray):
        """``(sites, new_values)`` of ``rows``' moves (from :meth:`resolve`), each
        ``(len(rows), k)`` as in :class:`BatchMove`, read from ``configs``."""
        raise NotImplementedError

    def native_fields(self):
        """``(kind, arrays)`` when the compiled super-step
        (:mod:`repro.kernels.superstep`) can stand in for :meth:`resolve`
        and :meth:`moves` on these drawn arrays (none for a swap block, whose
        pairs C draws itself); None (the default) keeps the block on the
        NumPy path."""
        return None

    #: A :class:`PooledBlock`'s candidate rows; None for a local block.
    candidates = None

    def batch_move(self, configs: np.ndarray, hamiltonian: Hamiltonian,
                   rng: np.random.Generator, current_energies=None) -> "BatchMove":
        """Resolve and price step 0: ``propose_many`` is the one-step block."""
        n_rows = configs.shape[0]
        rows = np.arange(n_rows)
        move = self.resolve(0, configs, rows, [(rng, 0, n_rows)])
        sites, values = self.moves(configs, rows, move)
        price = getattr(hamiltonian, self.many)
        return BatchMove(
            sites=sites, new_values=values.astype(configs.dtype, copy=False),
            delta_energies=price(configs, move[:, 0], move[:, 1]),
            log_q_ratios=np.zeros(n_rows),
        )


class PooledBlock(FieldBlock):
    """``n`` super-steps of a team whose row-steps each take either a local
    move or a pooled independence candidate (DESIGN.md §16).

    ``arrays`` is ``(pick,)``, ``(n, B)`` int64: −1 where the row-step takes
    the move of the ``local`` block (drawn for every row-step, read where
    ``pick < 0``), else the index of its candidate in ``candidates`` =
    ``(configs (m, n_sites) int8, energies (m,), log q (m,), component
    (m,) int64)``.  ``components[d]`` is pooled proposal ``d``; its
    ``log_q_current(configs, rng)`` is log q of current configurations under
    it (an estimate that draws from ``rng`` for the VAE), and its
    ``native_scorer(configs)`` the compiled scorer's view of the same
    density, or None.

    Everything drawn is state-independent except log q of a row's current
    configuration.  A block runner keeps per row the log q it holds and the
    component it holds it for (``held``, −1 for none): an accepted
    candidate hands the row its pooled log q, an accepted local move clears
    it, and :meth:`score` fills it, at the step where a candidate meets a
    row that holds none for its component.  Every row starts a block
    holding none.
    """

    def __init__(self, pick, candidates, local=None, components=()):
        super().__init__(pick)
        self.candidates = candidates
        self.local = local
        self.components = list(components)
        self.many = "" if local is None else local.many

    @property
    def key(self) -> tuple:
        return (PooledBlock, None if self.local is None else self.local.key)

    def stacked(self, blocks) -> "PooledBlock":
        """Rows end to end; candidate indices and component slots are
        offset, so a slot names one team's component."""
        blocks = [self, *blocks]
        starts = np.cumsum([0] + [len(b.candidates[0]) for b in blocks])
        slots = np.cumsum([0] + [len(b.components) for b in blocks])
        pick = np.concatenate([np.where(b.arrays[0] < 0, -1, b.arrays[0] + start)
                               for b, start in zip(blocks, starts)], axis=1)
        columns = [np.concatenate(c) for c in zip(*(b.candidates for b in blocks))]
        columns[3] = np.concatenate([b.candidates[3] + s for b, s in zip(blocks, slots)])
        local = None if self.local is None else self.local.stacked(
            [b.local for b in blocks[1:]])
        return PooledBlock(pick, tuple(columns), local,
                           [component for b in blocks for component in b.components])

    def resolve(self, step, configs, rows, streams):
        """The local block's moves on the local row-steps (a swap block
        draws for those rows only); candidate row-steps read ``(0, 0)``."""
        move = np.zeros((len(rows), 2), dtype=np.int64)
        local = np.flatnonzero(self.arrays[0][step] < 0)
        if len(local):
            sub = type(self.local)(*(a[step:step + 1, local] for a in self.local.arrays),
                                   **self.local.params)
            move[local] = sub.resolve(
                0, configs[local], np.arange(len(local)),
                [(rng, *np.searchsorted(local, (lo, hi))) for rng, lo, hi in streams])
        return move

    def moves(self, configs, rows, move):
        return self.local.moves(configs, rows, move)

    def native_fields(self):
        if type(self) is not PooledBlock:  # a subclass may resolve differently
            return None
        return ("global", ()) if self.local is None else self.local.native_fields()

    def score(self, step, configs, log_q, held, streams, lib=None,
              profiler=None) -> np.ndarray:
        """Fill ``log_q``/``held`` of the rows whose candidate at ``step``
        meets them holding no log q for its component, and return those
        rows: one scoring call per component, in slot order, through the
        compiled scorer when ``lib`` (the loaded super-step library) is
        given and the component has a view, as the C loop scores; else its
        ``log_q_current`` on the stream of the team the slot belongs to
        (``streams`` lists ``(rng, row_lo, row_hi)`` per team, as for
        :meth:`FieldBlock.resolve`)."""
        pick = self.arrays[0][step]
        rows = np.flatnonzero(pick >= 0)
        want = self.candidates[3][pick[rows]]
        stale = want != held[rows]
        if not stale.any():
            return rows[stale]
        t0 = profiler.start("wl.block.score") if profiler is not None else None
        rows, want = rows[stale], want[stale]
        groups = [(0, rows)] if len(self.components) == 1 else [
            (slot, rows[want == slot]) for slot in np.unique(want)]
        for slot, sub in groups:
            component, stale_rows = self.components[slot], configs[sub]
            fresh = None
            if lib is not None:
                view = component.native_scorer(stale_rows)
                fresh = None if view is None else view.log_q(lib, stale_rows)
            if fresh is None:  # a slot names one team's component
                rng = next(rng for rng, lo, hi in streams if lo <= sub[0] < hi)
                fresh = component.log_q_current(stale_rows, rng)
            log_q[sub] = fresh
            held[sub] = slot
        if profiler is not None:
            profiler.stop("wl.block.score", t0)
        return rows

    def batch_move(self, configs, hamiltonian, rng, current_energies=None) -> BatchMove:
        """Step 0 as one move per row, every row ``n_sites`` wide: the
        current rows scored once, then the local move (padded with its first
        pair) or the candidate with its carried energy and log q."""
        n_rows, n_sites = configs.shape
        if current_energies is None:
            current_energies = hamiltonian.energies(configs)
        streams = [(rng, 0, n_rows)]
        log_q = np.zeros(n_rows)
        self.score(0, configs, log_q, np.full(n_rows, -1, dtype=np.int64), streams)
        pick = self.arrays[0][0]
        local, taken = np.flatnonzero(pick < 0), np.flatnonzero(pick >= 0)
        sites = np.tile(np.arange(n_sites), (n_rows, 1))
        values = configs.copy()
        delta, ratio = np.zeros(n_rows), np.zeros(n_rows)
        if len(local):
            move = self.resolve(0, configs, np.arange(n_rows), streams)
            s, v = self.local.moves(configs, local, move)
            sites[local], values[local] = s[:, :1], v[:, :1]  # the padding
            sites[local, :s.shape[1]], values[local, :s.shape[1]] = s, v
            delta[local] = getattr(hamiltonian, self.many)(
                configs[local], move[local, 0], move[local, 1])
        cand_configs, cand_energies, cand_log_q, _ = self.candidates
        values[taken] = cand_configs[pick[taken]]
        delta[taken] = cand_energies[pick[taken]] - current_energies[taken]
        ratio[taken] = log_q[taken] - cand_log_q[pick[taken]]
        return BatchMove(sites=sites, new_values=values, delta_energies=delta,
                         log_q_ratios=ratio)


def draw_pooled(choice, pooled, configs, hamiltonian, rng, local=None) -> PooledBlock:
    """A :class:`PooledBlock` for the row-steps of ``choice`` (``(n, B)``:
    −1 for the ``local`` block's move, ``d`` for a candidate of
    ``pooled[d]``) of the B rows ``configs``.  Each pooled proposal hands
    out its candidates in row-step order (its ``take_candidates``), in
    component order."""
    flat = choice.ravel()
    pick = np.full(flat.shape, -1, dtype=np.int64)
    columns = [(np.empty((0, hamiltonian.n_sites), dtype=np.int8), np.empty(0),
                np.empty(0), np.empty(0, dtype=np.int64))]
    start = 0
    for d, proposal in enumerate(pooled):
        at = np.flatnonzero(flat == d)
        if len(at):
            drawn, log_q, energies = proposal.take_candidates(configs, len(at), hamiltonian, rng)
            columns.append((drawn, energies, log_q, np.full(len(at), d, dtype=np.int64)))
            pick[at] = np.arange(start, start + len(at))
            start += len(at)
    candidates = tuple(np.concatenate(c) for c in zip(*columns))
    return PooledBlock(pick.reshape(choice.shape), candidates, local, pooled)


class Proposal:
    """Transition-kernel factory.

    Attributes
    ----------
    preserves_composition : bool
        True when every move keeps species counts fixed (required for
        canonical/HEA sampling).
    is_global : bool
        True for whole-configuration updates (used by diagnostics and the
        machine performance model, which costs global moves differently).
    """

    preserves_composition: bool = True
    is_global: bool = False
    name: str = "proposal"
    #: True for an independence proposal whose candidates are drawn ahead
    #: of the chain (a :class:`PooledProposal`); a mixture puts its
    #: row-steps in a :class:`PooledBlock`.
    pooled: bool = False

    def native_scorer(self, configs):
        """The compiled super-step's view of a pooled proposal's density
        for rows like ``configs`` (a :class:`repro.kernels.superstep.
        MadeView`), or None (the default): its pooled rows are then scored
        by ``log_q_current`` and its blocks run in NumPy."""
        return None

    def propose_many(
        self,
        configs: np.ndarray,
        hamiltonian: Hamiltonian,
        rng: np.random.Generator,
        current_energies: np.ndarray | None = None,
    ) -> BatchMove:
        """Produce one move per row of ``configs`` (shape ``(B, n_sites)``):
        the one-step block of :meth:`draw_fields`.  ``current_energies``
        lets pooled candidates price ΔE without re-evaluating ``H(x)``."""
        configs = np.atleast_2d(configs)
        block = self.draw_fields(configs, hamiltonian, rng)
        return block.batch_move(configs, hamiltonian, rng, current_energies)

    def draw_fields(
        self,
        configs: np.ndarray,
        hamiltonian: Hamiltonian,
        rng: np.random.Generator,
        n_steps: int = 1,
    ) -> FieldBlock:
        """Draw the randomness of ``n_steps`` super-steps of every row."""
        raise NotImplementedError(f"{type(self).__name__} draws no field block")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class PooledProposal(Proposal):
    """An independence proposal whose candidates are drawn ahead of the
    chain, a pool block at a time (:class:`~repro.proposals.cache.
    CandidatePool`), and handed out one per row-step as a
    :class:`PooledBlock`.

    A subclass has a ``model`` (whose ``config.n_species`` it decodes),
    a ``composition`` mode, ``_pool`` (a ``CandidatePool``), and implements
    ``_draw_block(configs, counts, rng) -> (candidates, log q)`` and
    ``log_q_current(configs, rng)``.  ``preserves_composition`` says
    whether candidates are drawn on the rows' composition: the pool is then
    keyed on it.
    """

    is_global = True
    pooled = True

    def _counts(self, configs) -> np.ndarray | None:
        """The species counts every row of ``configs`` shares when
        candidates keep the composition (ValueError if they differ); None
        otherwise."""
        if not self.preserves_composition:
            return None
        if (np.sort(configs, axis=1) != np.sort(configs[0])).any():
            raise ValueError(f"composition={self.composition!r} steps rows of one "
                             "composition at a time")
        return composition_counts(configs[0], self.model.config.n_species)

    def draw_fields(self, configs, hamiltonian: Hamiltonian, rng, n_steps=1) -> PooledBlock:
        """A :class:`PooledBlock` of the next ``n_steps × B`` pool rows,
        one per row-step."""
        configs = np.atleast_2d(configs)
        choice = np.zeros((n_steps, configs.shape[0]), dtype=np.int64)
        return draw_pooled(choice, [self], configs, hamiltonian, rng)

    def take_candidates(self, configs, n: int, hamiltonian: Hamiltonian, rng) -> tuple:
        """The next ``n`` pool rows for rows like ``configs``: ``(candidates,
        log q, energies)``, priced by ``hamiltonian`` (a pool priced by
        another is re-priced first, drawing nothing) and, when candidates
        keep the composition, drawn on that of ``configs`` (a pool drawn for
        another is dropped first).  A refill draws from ``rng``."""
        pool = self._pool
        counts = self._counts(configs)
        drawn_for = None if counts is None else tuple(counts.tolist())
        if pool.drawn_for != drawn_for:
            pool.drop()
            pool.drawn_for = drawn_for

        def refill():
            candidates, log_q = self._draw_block(configs, counts, rng)
            return candidates, log_q, hamiltonian.energies(candidates)

        if pool.cursor < pool.size and pool.priced_by is not hamiltonian:
            candidates, log_q, _ = pool.columns
            pool.columns = (candidates, log_q, hamiltonian.energies(candidates))
        pool.priced_by = hamiltonian
        return pool.take(n, refill)

    def invalidate_cache(self) -> None:
        """Drop the pooled candidates, drawn from the old weights (call
        after retraining the model)."""
        self._pool.drop()
