"""ctypes face of ``superstep.c``: one block of super-steps run in C.

:func:`run_block` is the native twin of :func:`repro.sampling.batched.
_run_block`, which stays the oracle: same teams in, same arrays, counters
and RNG streams out, bit for bit (DESIGN.md §16).  It works in place on each
team's own arrays — no stacking, no write-back — and hands C one struct per
team (mirrors of the ``Tables`` / ``Grids`` / ``Team`` / ``Made`` structs in
the C file; keep the field orders in step).

A pooled team also hands C one :class:`MadeView` per pooled component, and
the C loop scores the current log q of its stale rows itself.  The NumPy
block scores them through the same compiled function (``repro_made_log_q``)
whenever a library is loaded, so the two blocks still agree bit for bit.

A swap team also hands C its generator's ``bitgen_t``: the C loop draws
each step's pairs from it as :meth:`repro.proposals.local.SwapBlock.
resolve` draws them, through a port of NumPy's bounded draw
(``draw_below``; :func:`self_test` checks it against ``Generator.integers``
before a library is published).

Nothing crosses unchecked.  Before any pointer is taken — and before any
random number is drawn — every array is checked for dtype, shape and
C-contiguity, and every index the C loops will read is range-checked once:
pre-drawn sites in ``[0, n_sites)``, flip shifts in ``[1, S)``, species in
``[0, S)``, walker bins inside their window, table entries inside the
arrays they address, candidate components inside the team's views.  A swap
team's ``rng`` must be a plain ``np.random.Generator`` whose ``bitgen_t``
reads back the ``state`` and ``next_uint32`` that NumPy's ctypes interface
reports, on at most 2³¹ sites; its lock is held across the C call (ctypes
drops the GIL, and the C loop bypasses NumPy's own locking).  Whatever
fails a check is not an error here: the block is declined
(:func:`run_block` returns False) and the NumPy path handles it exactly as
it always has, raising what it always raised.
"""

from __future__ import annotations

import ctypes
from contextlib import ExitStack
from weakref import WeakKeyDictionary

import numpy as np

from repro.kernels.tables import PairTables

__all__ = ["MadeView", "declare", "draw_below", "run_block", "self_test"]

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


def _struct(name: str, *groups):
    """A ctypes struct from ``(ctype, "field names")`` groups, in order."""
    fields = [(field, ctype) for ctype, names in groups for field in names.split()]
    return type(name, (ctypes.Structure,), {"_fields_": fields})


_Tables = _struct(
    "_Tables", (_I64, "n_sites n_species z null_key"),
    (_PTR, "cat_table_T shell_offsets diff_flat pair_row pair_col field"))
_Grids = _struct("_Grids", (_I64, "is_levels n_marks"), (_F64, "tol"),
                 (_PTR, "marks table"))
_Team = _struct(
    "_Team", (_I64, "rows bin_offset table_base"), (_F64, "e_max ln_f"),
    (_PTR, "configs energies bins ln_g histogram visited slot_accepted "
           "field0 field1 ln_u move rng beta "
           "pick cand_configs cand_energy cand_log_q cand_slot made log_q held"),
    (_I64, "accepted out_of_grid scored"))
_Made = _struct("_Made", (_I64, "n_layers"),
                (_PTR, "widths weights biases counts left scratch"))
_Bitgen = _struct("_Bitgen",
                  (_PTR, "state next_uint64 next_uint32 next_double next_raw"))

_KINDS = {"swap": 0, "swap_distinct": 1, "flip": 2, "global": 3, "pairs": 4}
_UNSIGNED = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def declare(lib):
    """Set the C functions' signatures on a freshly loaded library."""
    fn = lib.repro_superstep
    fn.restype = _I64
    fn.argtypes = [ctypes.POINTER(_Tables), ctypes.POINTER(_Grids),
                   ctypes.POINTER(_Team)] + [_I64] * 3
    fn = lib.repro_made_log_q
    fn.restype = None
    fn.argtypes = [ctypes.POINTER(_Made), _I64, _I64, _PTR, _I64, _PTR]
    fn = lib.repro_draw_below
    fn.restype = None
    fn.argtypes = [_PTR, _I64, _I64, _PTR]
    return lib


class _Unfit(Exception):
    """An input the C loop must not be handed; the NumPy path takes it."""


def _address(a, dtype, shape, writable: bool = False) -> int:
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.shape == shape
            and a.flags.c_contiguous and (a.flags.writeable or not writable)):
        raise _Unfit
    return a.ctypes.data


def _check_below(a: np.ndarray, bound: int) -> None:
    """Every entry of integer array ``a`` in ``[0, bound)``, in one pass:
    read unsigned, a negative entry is a huge one."""
    if a.size and int(a.view(_UNSIGNED[a.dtype.itemsize]).max()) >= bound:
        raise _Unfit


def _bitgen(rng) -> int:
    """The address of ``rng``'s ``bitgen_t``, once its mirror reads back the
    ``state`` and ``next_uint32`` that NumPy's ctypes interface reports."""
    if type(rng) is not np.random.Generator:
        raise _Unfit
    face = rng.bit_generator.ctypes
    address = face.bit_generator.value
    mirror = _Bitgen.from_address(address)
    if (mirror.state != face.state_address
            or mirror.next_uint32 != ctypes.cast(face.next_uint32, _PTR).value):
        raise _Unfit
    return address


def draw_below(lib, rng, n: int, count: int) -> np.ndarray:
    """``count`` draws of the compiled ``draw_below`` in ``[0, n)``, ``1 <=
    n < 2**32``, from ``rng``'s stream: ``rng.integers(n, size=count)``
    when the port is right (the self-test's and the tests' handle on it)."""
    if not 1 <= n < 2**32:
        raise ValueError(f"draw_below needs 1 <= n < 2**32, got {n}")
    try:
        address = _bitgen(rng)
    except _Unfit:
        raise TypeError("draw_below needs a np.random.Generator") from None
    out = np.empty(count, dtype=np.int64)  # lint-api: allow
    with rng.bit_generator.lock:
        lib.repro_draw_below(address, n, count, out.ctypes.data)
    return out


#: PairTables -> (_Tables, the arrays it points into); built and validated
#: on a table set's first native block, dropped with the tables.
_TABLE_VIEWS: WeakKeyDictionary = WeakKeyDictionary()


def _tables_view(tables: PairTables):
    view = _TABLE_VIEWS.get(tables)
    if view is None:
        cat, shell, diff = tables.cat_table_T, tables.shell_offsets, tables.diff_flat
        row, col = tables.pair_offsets
        s, (z, n_sites) = tables.n_species, cat.shape
        null_key = s * tables.n_shells
        arrays = (cat, shell, diff, row, col, tables.field)
        struct = _Tables(
            n_sites, s, z, null_key,
            _address(cat, np.int32, (z, n_sites)), _address(shell, np.int16, (z,)),
            _address(diff, np.float64, (s * s * (null_key + 1),)),
            _address(row, np.int32, (s,)), _address(col, np.int32, (s,)),
            None if tables.field is None else _address(tables.field, np.float64, (s,)))
        _check_below(cat, n_sites)
        _check_below(shell, null_key - s + 1)
        _check_below(row, diff.size)
        _check_below(col, diff.size - int(row.max()) - null_key)
        view = _TABLE_VIEWS[tables] = (struct, arrays)
    return view[0]


class MadeView:
    """A MADE's masked weights as the C ``Made`` struct (a conditioned
    model's constant condition folded into the first bias), for rows of one
    composition (``counts``; None: free), with the arrays it points into.
    :meth:`~repro.proposals.dl_made.MADEProposal.native_scorer` builds one
    per composition; it holds pointers, so it is kept where no pickle of a
    proposal or a team can reach it."""

    def __init__(self, n_sites: int, n_species: int, weights, biases, counts=None):
        widths = np.array([weights[0].shape[0]] + [w.shape[1] for w in weights],
                          dtype=np.int64)  # lint-api: allow
        x_dim = n_sites * n_species
        if len(weights) < 2 or widths[0] != x_dim or widths[-1] != x_dim or any(
                w.shape != (a, b) or bias.shape != (b,)
                for w, bias, a, b in zip(weights, biases, widths[:-1], widths[1:])):
            raise ValueError(f"not a MADE on {n_sites} x {n_species}")
        self.n_sites, self.n_species = n_sites, n_species
        flat_w = np.concatenate([np.ravel(w) for w in weights]).astype(np.float64)
        flat_b = np.concatenate(biases).astype(np.float64)
        left = np.zeros(n_species, dtype=np.int64)  # lint-api: allow
        scratch = np.zeros(int(widths[1:].sum()))
        if counts is not None:
            counts = np.array(counts, dtype=np.int64)  # lint-api: allow
            if counts.shape != (n_species,):
                raise ValueError(f"counts must have shape ({n_species},), got {counts.shape}")
        self._arrays = (widths, flat_w, flat_b, counts, left, scratch)
        self.struct = _Made(len(weights), widths.ctypes.data, flat_w.ctypes.data,
                            flat_b.ctypes.data,
                            None if counts is None else counts.ctypes.data,
                            left.ctypes.data, scratch.ctypes.data)

    def log_q(self, lib, configs) -> np.ndarray | None:
        """log q of each row of ``configs`` through ``lib``; None, reading
        nothing, for rows the C scorer must not be handed."""
        try:
            _address(configs, np.int8, (len(configs), self.n_sites))
            _check_below(configs, self.n_species)
        except _Unfit:
            return None
        out = np.empty(len(configs))
        lib.repro_made_log_q(self.struct, self.n_sites, self.n_species,
                             configs.ctypes.data, len(configs), out.ctypes.data)
        return out


def _marshal(members, n: int, t, grids):
    """``(kind, team structs, per-team scratch, generators)`` for one block,
    or :class:`_Unfit`.  ``grids`` is None for a canonical group: each team
    hands C its ``beta`` and no window.  A team's scratch is its ``move``
    array and whatever else its struct points into.  A swap team hands C
    its generator, which is listed once in ``generators``.  A pooled team
    hands C one :class:`MadeView` per component, by slot; a component
    without one (any pooled proposal but a ``MADEProposal``: the VAE, a
    subclass) is unfit."""
    n_sites, s = t.n_sites, t.n_species
    specs = [fields.native_fields() for _, fields in members]
    if None in specs or len({kind for kind, _ in specs}) != 1:
        raise _Unfit
    kind = specs[0][0]
    scratch, generators = [], {}
    teams = (_Team * len(members))()
    for w, ((team, fields), (_, arrays), ct) in enumerate(zip(members, specs, teams)):
        k = ct.rows = team.n_slots
        ct.configs = _address(team.configs, np.int8, (k, n_sites), True)
        ct.energies = _address(team.energies, np.float64, (k,), True)
        ct.slot_accepted = _address(team.slot_accepted, np.int64, (k,), True)
        _check_below(team.configs, s)
        if grids is None:
            ct.beta = _address(team.beta, np.float64, (k,))
        else:
            lo, hi = int(grids.offsets[w]), int(grids.offsets[w + 1])
            ct.bin_offset, ct.table_base = lo, w * (len(grids.marks) + 1)
            ct.e_max, ct.ln_f = float(grids.e_max[w]), float(team.ln_f)
            ct.bins = _address(team.bins, np.int64, (k,), True)
            ct.ln_g = _address(team.ln_g, np.float64, (hi - lo,), True)
            ct.histogram = _address(team.histogram, np.int64, (hi - lo,), True)
            ct.visited = _address(team.visited, np.bool_, (hi - lo,), True)
            _check_below(team.bins, hi - lo)
        local = fields if fields.candidates is None else fields.local
        if kind == "flip":
            sites, shifts = arrays
            ct.field0 = _address(sites, np.int64, (n, k))
            ct.field1 = _address(shifts, np.int64, (n, k))
            _check_below(sites, n_sites)
            if local.params["n_species"] != s or shifts.min() < 1 or shifts.max() >= s:
                raise _Unfit
        elif kind == "pairs":
            (pairs,) = arrays
            ct.field0 = _address(pairs, np.int64, (n, k, 2))
            _check_below(pairs, n_sites)
        elif kind != "global":  # the swap kinds draw in C
            if local.params["n_sites"] != n_sites or n_sites > 2**31:
                raise _Unfit
            ct.rng = _bitgen(team.rng)
            generators[ct.rng] = team.rng.bit_generator
        move = np.empty((k, 2), dtype=np.int64)  # lint-api: allow
        ct.move = move.ctypes.data
        keep = None
        if fields.candidates is not None:
            (pick,), (configs, energies, log_q_cand, slot) = fields.arrays, fields.candidates
            m = len(configs)
            ct.pick = _address(pick, np.int64, (n, k))
            ct.cand_configs = _address(configs, np.int8, (m, n_sites))
            ct.cand_energy = _address(energies, np.float64, (m,))
            ct.cand_log_q = _address(log_q_cand, np.float64, (m,))
            ct.cand_slot = _address(slot, np.int64, (m,))
            lowest = 0 if kind == "global" else -1  # -1: the local move
            if pick.size and (pick.min() < lowest or pick.max() >= m):
                raise _Unfit
            _check_below(configs, s)
            views = [c.native_scorer(team.configs) for c in fields.components]
            if any(v is None or (v.n_sites, v.n_species) != (n_sites, s) for v in views):
                raise _Unfit
            _check_below(slot, len(views))
            made = (_Made * len(views))(*(v.struct for v in views))
            log_q = np.zeros(k)
            held = np.full(k, -1, dtype=np.int64)  # lint-api: allow
            ct.made, ct.log_q, ct.held = (ctypes.addressof(made), log_q.ctypes.data,
                                          held.ctypes.data)
            keep = (views, made, log_q, held)
        scratch.append((move, keep))
    return _KINDS[kind], teams, scratch, list(generators.values())


def run_block(lib, members, n: int, hamiltonian, grids) -> bool:
    """``n`` super-steps of every ``(team, fields)`` in ``members`` in C.

    Returns False — having drawn nothing and written nothing — when this
    block is not one the C loop may run (see the module docstring); the
    caller then runs the NumPy block.  Otherwise each team's arrays,
    counters and ``rng`` end exactly where the NumPy block would leave them.
    ``grids`` is None for a group of canonical teams (the C ``Grids`` is
    then NULL).  The whole block is one C call: it scores pooled teams'
    stale rows and draws swap teams' pairs itself.
    """
    tables = getattr(hamiltonian, "tables", None)
    if type(tables) is not PairTables or (grids is not None and not np.isfinite(grids.tol)):
        return False
    try:
        t = _tables_view(tables)
        kind, teams, scratch, generators = _marshal(members, n, t, grids)
        g = None if grids is None else _Grids(
            grids.is_levels, len(grids.marks), grids.tol,
            _address(grids.marks, np.float64, grids.marks.shape),
            _address(grids._table, np.int64, grids._table.shape))
    except _Unfit:
        return False
    # acceptance noise: drawn from each team's stream after its fields
    noise = [np.log(team.rng.random((n, ct.rows))) for (team, _), ct in zip(members, teams)]
    for ct, ln_u in zip(teams, noise):
        ct.ln_u = ln_u.ctypes.data
    with ExitStack() as held:
        for bit_generator in generators:
            held.enter_context(bit_generator.lock)
        status = lib.repro_superstep(t, g, teams, len(members), kind, n)
    if status < 0:
        raise IndexError("an energy lies within tolerance of two levels")
    for (team, _), ct in zip(members, teams):
        team._tally(n * ct.rows, ct.accepted, ct.out_of_grid, scored=ct.scored)
    return True


def _check_scorer(lib, made, rng) -> None:
    """``repro_made_log_q`` against ``MADE.log_prob`` (another summation
    order, so within 1e-12 relative), free and on a composition, on rows on
    it and off it (-inf)."""
    from repro.lattice.configuration import composition_counts, one_hot
    from repro.proposals.dl_made import MADEProposal

    s = made.config.n_species
    configs = made.sample(8, rng)
    counts = composition_counts(configs[0], s)
    for composition, given in (("free", None), ("fixed", counts)):
        view = MADEProposal(made, composition).native_scorer(configs[:1])
        got = view.log_q(lib, configs)
        want = made.log_prob(one_hot(configs, s), counts=given)
        finite = np.isfinite(want)
        if not (finite[0] and np.array_equal(got[~finite], want[~finite])
                and np.allclose(got[finite], want[finite], rtol=1e-12, atol=0.0)):
            raise RuntimeError(f"self-test: compiled log q != MADE.log_prob "
                               f"(hidden {made.config.hidden}, counts {given})")


def _check_draws(lib) -> None:
    """``draw_below`` against ``Generator.integers`` on ranges 1, 2, 54 and
    2**31 + 1 (where about half of the Lemire draws reject), in chunks of 1,
    5, 7 and 1000 (odd counts leave half of a PCG64 word buffered): equal
    values and equal final states."""
    for n in (1, 2, 54, 2**31 + 1):
        ours, numpy_rng = np.random.default_rng(n), np.random.default_rng(n)
        for count in (1, 5, 7, 1000):
            if not np.array_equal(draw_below(lib, ours, n, count),
                                  numpy_rng.integers(n, size=count)):
                raise RuntimeError(f"self-test: compiled draw != Generator.integers "
                                   f"(n = {n}, {count} draws)")
        if ours.bit_generator.state != numpy_rng.bit_generator.state:
            raise RuntimeError(f"self-test: compiled draws leave another state (n = {n})")


def self_test(lib) -> None:
    """Check the compiled bounded draw and scorer, then run small blocks
    through ``lib`` and through the NumPy block.

    The bounded draw (``repro_draw_below``) is checked against
    ``Generator.integers`` (:func:`_check_draws`), so a NumPy whose draws
    differ never gets a library.  The scorer (``repro_made_log_q``) is
    checked against ``MADE.log_prob`` on two small random models, hidden
    (8,) and (6, 5).  The blocks: Wang-Landau swaps and field flips on a
    uniform grid, flips on a level grid, and canonical swaps and field flips
    at signed inverse temperatures including 0, and canonical swaps on rows
    with no unlike pair (every row-step runs all 256 passes of the
    rejection loop and keeps an identity move); then pooled blocks — flips
    mixed with candidates of those two models (``"free"``) in both modes,
    and swaps mixed with them on the rows' composition.  Two teams each;
    raises ``RuntimeError`` unless every team array, counter and RNG state
    agrees bit for bit.  A library is published to the cache only after
    passing this.
    """
    from copy import deepcopy

    from repro.hamiltonians import IsingHamiltonian, PairHamiltonian
    from repro.lattice import random_configuration, square_lattice
    from repro.nn.models.made import MADE, MADEConfig
    from repro.proposals.base import draw_pooled
    from repro.proposals.dl_made import MADEProposal
    from repro.proposals.local import FlipProposal, SwapProposal
    from repro.sampling import batched
    from repro.sampling.binning import EnergyGrid
    from repro.sampling.metropolis import CanonicalTeam
    from repro.sampling.wang_landau import WLConfig

    _check_draws(lib)
    rng = np.random.default_rng(20230515)
    mats = rng.normal(size=(2, 3, 3))
    alloy = PairHamiltonian(square_lattice(4), mats + mats.transpose(0, 2, 1),
                            field=rng.normal(size=3))
    ising = IsingHamiltonian(square_lattice(4))
    signed = [(1.5, 0.0, -0.7), (-3.0, 0.4, 0.0)]  # per team, per row
    # weights perturbed enough that a stale log q flips canonical decisions
    # (a loop that keeps it across a local accept fails here)
    models = [MADE(MADEConfig(n_sites=16, n_species=3, hidden=hidden), rng=rng)
              for hidden in ((8,), (6, 5))]
    for model in models:
        for p in model.parameters():
            p.value += rng.normal(scale=0.7, size=p.value.shape)
        _check_scorer(lib, model, rng)
    cases = [(alloy, SwapProposal, [13, 2, 1], None, None, False),
             (alloy, FlipProposal, [6, 5, 5], None, None, False),
             (ising, FlipProposal, [8, 8], ising.energy_levels(), None, False),
             (alloy, SwapProposal, [13, 2, 1], None, signed, False),
             (alloy, FlipProposal, [6, 5, 5], None, signed, False),
             (alloy, SwapProposal, [16, 0, 0], None, signed, False),
             (alloy, FlipProposal, [6, 5, 5], None, None, True),
             (alloy, FlipProposal, [6, 5, 5], None, signed, True),
             (alloy, SwapProposal, [6, 5, 5], None, None, True)]

    def draw(team, ham, components):
        fields = team.proposal.draw_fields(team.configs, ham, team.rng, 40)
        if not components:
            return fields
        choice = team.rng.integers(-1, len(components), size=(40, team.n_slots))
        return draw_pooled(choice, components, team.configs, ham, team.rng, fields)

    for ham, proposal, counts, levels, betas, pooled in cases:
        configs = np.stack([random_configuration(ham.n_sites, counts, rng=rng)
                            for _ in range(6)])
        configs = configs[np.argsort(ham.energies(configs), kind="stable")]
        if betas is None:
            energies = ham.energies(configs)
            grid = (EnergyGrid.uniform(energies[0] - 0.5, energies[-1] + 0.5, 12)
                    if levels is None else EnergyGrid.from_levels(levels))
            bins = grid.index_array(energies)
            windows = [grid.subgrid(0, int(bins[2])),
                       grid.subgrid(int(bins[3]), grid.n_bins - 1)]
            teams = [batched.BatchedWangLandauSampler(
                hamiltonian=ham, proposal=proposal(), grid=window,
                initial_config=configs[3 * w:3 * w + 3], rng=w,
                config=WLConfig(batch_size=3)) for w, window in enumerate(windows)]
        else:
            teams = [CanonicalTeam(ham, proposal(), configs[3 * w:3 * w + 3], beta, rng=w)
                     for w, beta in enumerate(betas)]
        composition = "fixed" if proposal is SwapProposal else "free"
        components = [MADEProposal(model, composition) for model in models] if pooled else []
        # each side consumes candidates from its own pools
        twins, twin_components = deepcopy((teams, components))
        for side, pools, native in ((teams, components, True),
                                    (twins, twin_components, False)):
            members = [(team, draw(team, ham, pools)) for team in side]
            grids = None if betas else batched.StackedGrids(
                [team.grid for team in side], [3, 3])
            if not native:
                batched._run_block(members, 40, ham, grids, lib=lib)
            elif not run_block(lib, members, 40, ham, grids):
                raise RuntimeError("self-test: the native block declined its own test case")
        for a, b in zip(teams, twins):
            arrays = [name for name, value in vars(a).items() if isinstance(value, np.ndarray)]
            same = all(np.array_equal(getattr(a, name), getattr(b, name)) for name in arrays)
            if not (same and getattr(a, "counters", None) == getattr(b, "counters", None)
                    and (a.n_steps, a.n_accepted) == (b.n_steps, b.n_accepted)
                    and a.rng.bit_generator.state == b.rng.bit_generator.state):
                mode = ("canonical" if betas else "Wang-Landau") + (" pooled" if pooled else "")
                raise RuntimeError(
                    f"self-test: native and NumPy blocks disagree ({mode} {proposal.__name__})")
