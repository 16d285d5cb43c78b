"""Batched multi-walker Wang–Landau stepping.

:class:`BatchedWangLandauSampler` steps B walkers *of the same energy
window* together against one shared ``ln g`` / histogram.  Each super-step
is split into a vectorized phase and a sequential phase:

- **vectorized** (amortized over B): move generation, the
  ``delta_energy_*_many`` kernels of :mod:`repro.kernels`, the bin lookup
  and the acceptance noise ``ln u ~ log U(0,1)^B``;
- **sequential** (cheap scalar loop): the accept/reject decision and the
  ``ln g``/histogram commit, walker by walker.

The commit **must** stay sequential: Wang-Landau acceptance compares ``ln
g`` at the current and proposed bins, and walker ``b``'s decision has to
see the ``ln f`` increments walkers ``0..b-1`` just deposited — committing
the whole batch against a stale ``ln g`` snapshot is a different (biased)
update rule.  Sequential commits make a super-step exactly equivalent to B
round-robin scalar WL steps of a shared-``ln g`` team, which is the
established multiple-walkers-per-window REWL scheme (Vogel et al. 2013), so
the convergence guarantees carry over unchanged (E1-tested in
``tests/test_batched_wl.py``).

Every super-step runs in :func:`advance_block` (DESIGN.md §16): a team
draws the randomness of a whole ``steps(n)`` call at once — flip fields, or
a :class:`~repro.proposals.base.PooledBlock` of per-row-step component
choices and pre-drawn MADE/VAE candidates with their energies and log q;
swap pairs alone are drawn step by step, as each super-step resolves — and
the super-steps of every team that advances together run as
one array program with team state written back once per block; the only
model work left inside a block is scoring the current log q of rows that do
not hold it, which the compiled loop does inline for MADE.
``tests/test_dl_batched.py`` pins that the block reproduces exact
enumeration with a MADE mixture.

These are the only Wang–Landau steps there are.  A single walker is a
one-row team: :class:`WangLandauSampler` adds that row's read views
(``config``, ``energy``, ``current_bin``) and ``step()`` = ``steps(1)``.  A
one-row team with ``ln_f = 0`` and a frozen ``ln g`` is the multicanonical
sampler (:class:`repro.sampling.multicanonical.MulticanonicalSampler`).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from repro.kernels import native, superstep
from repro.obs.events import worker_log
from repro.sampling.base import register_sampler
from repro.sampling.binning import StackedGrids
from repro.sampling.wang_landau import (
    WalkerCounters,
    WangLandauResult,
    WLConfig,
    _check_wl_config,
)
from repro.util.rng import as_generator

__all__ = ["BatchedWangLandauSampler", "WangLandauSampler", "advance_block",
           "make_wang_landau"]


def make_wang_landau(*, hamiltonian, proposal, grid, initial_config, rng=None,
                     config: WLConfig = WLConfig()):
    """A :class:`BatchedWangLandauSampler` of ``config.batch_size`` walkers
    (a 2-D ``initial_config`` fixes the count instead); takes the sampler's
    own keyword arguments."""
    return BatchedWangLandauSampler(hamiltonian=hamiltonian, proposal=proposal,
                                    grid=grid, initial_config=initial_config,
                                    rng=rng, config=config)


@register_sampler("batched_wang_landau")
class BatchedWangLandauSampler:
    """B walkers of one window sharing a single ``ln g`` estimate.

    Keyword-only construction::

        BatchedWangLandauSampler(
            hamiltonian=ham, proposal=prop, grid=window_grid,
            initial_config=configs,          # (B, n_sites) or (n_sites,)
            rng=seed, config=WLConfig(batch_size=B),
        )

    A 1-D ``initial_config`` is tiled to ``config.batch_size`` rows; a 2-D
    one fixes B directly.  All rows must start inside ``grid``.

    The flatness/schedule surface (``is_flat``, ``advance_modification_
    factor``, ``ln_f``, ``n_iterations``, ``histogram``, ``visited``,
    ``counters``) is the window's, so the REWL driver, health monitor, and
    checkpoints treat a team as one walker-shaped object; per-walker state
    is reached through the ``slot_*`` accessors (replica exchange swaps
    individual slots).  ``n_steps`` counts *walker* steps — one super-step
    adds B.
    """

    #: Wang-Landau mode of the block engine: a team with per-row inverse
    #: temperatures instead is a :class:`repro.sampling.metropolis.CanonicalTeam`.
    beta = None

    def __init__(self, *, hamiltonian, proposal, grid, initial_config, rng=None,
                 config: WLConfig = WLConfig()):
        cfg = _check_wl_config(type(self).__name__, config)
        initial = np.asarray(initial_config)
        if initial.ndim == 1:
            configs = np.tile(initial, (max(1, cfg.batch_size), 1))
        else:
            configs = np.array(initial, copy=True)
        if cfg.batch_size != configs.shape[0]:
            cfg = replace(cfg, batch_size=configs.shape[0])
        self._configure(cfg, hamiltonian, proposal, grid, rng)
        for row in configs:
            hamiltonian.validate_config(row)
        self.configs = configs
        self.energies = hamiltonian.energies(configs)
        self.bins = grid.index_array(self.energies).astype(np.int64)
        if (self.bins < 0).any():
            bad = int(np.argmax(self.bins < 0))
            raise ValueError(
                f"initial energy {self.energies[bad]:.6g} (walker {bad}) lies "
                f"outside the grid [{grid.e_min:.6g}, {grid.e_max:.6g}]; use "
                "drive_into_range"
            )
        self.ln_f = float(cfg.ln_f_init)
        n = grid.n_bins
        self.ln_g = np.zeros(n)
        self.histogram = np.zeros(n, dtype=np.int64)
        self.visited = np.zeros(n, dtype=bool)
        self.n_steps = 0
        self.n_accepted = 0
        self._steps_this_iteration = 0
        self.slot_accepted = np.zeros(self.n_slots, dtype=np.int64)
        self.slot_steps = np.zeros(self.n_slots, dtype=np.int64)

    def _configure(self, cfg, hamiltonian, proposal, grid, rng) -> None:
        """Everything but the walker state (shared with ``FusedTeam.attach``,
        whose walker state already lives in the campaign arrays)."""
        self.cfg = cfg
        self.hamiltonian = hamiltonian
        self.proposal = proposal
        self.grid = grid
        self.rng = as_generator(rng)
        self.ln_f_final = float(cfg.ln_f_final)
        self.flatness = float(cfg.flatness)
        self.schedule = cfg.schedule
        self.check_interval = (
            max(1000, 100 * grid.n_bins)
            if cfg.check_interval is None
            else int(cfg.check_interval)
        )
        self.n_iterations = 0
        self.iteration_steps: list[int] = []
        self.counters = WalkerCounters()
        self.profiler = None
        # Any one-off build of the compiled super-step happens here, at
        # construction: not inside a timed run, and before a controller
        # spawns the ranks that will only load it.
        native.library()

    # ----------------------------------------------------------------- slots

    @property
    def n_slots(self) -> int:
        """Number of walkers stepped per super-step."""
        return int(self.configs.shape[0])

    def slot_energy(self, k: int) -> float:
        return float(self.energies[k])

    def slot_bin(self, k: int) -> int:
        return int(self.bins[k])

    def slot_config(self, k: int) -> np.ndarray:
        """Walker ``k``'s configuration (a view — copy before mutating)."""
        return self.configs[k]

    def set_slot(self, k: int, config: np.ndarray, energy: float, bin_index: int) -> None:
        """Overwrite walker ``k``'s state (replica exchange)."""
        self.configs[k] = config
        self.energies[k] = energy
        self.bins[k] = bin_index

    def enable_profiling(self, profiler) -> None:
        """Attach a :class:`repro.obs.profile.SectionProfiler`.

        It observes the steps this team takes: :meth:`steps` hands it to
        :func:`advance_block`, and :meth:`is_flat` times its own section.
        Profiling draws no random numbers and changes no path, so the
        trajectory is bit-identical; the profiler pickles with the team.
        """
        if self.profiler is not None:
            raise RuntimeError("profiling is already enabled on this walker")
        self.profiler = profiler

    # ----------------------------------------------------------------- step

    def _tally(self, steps: int, accepted: int, out_of_grid: int,
               scored: int = 0) -> None:
        """Add ``steps`` walker steps (whole super-steps) and their outcomes
        to the counters."""
        counters = self.counters
        counters.log_q_scored += scored
        counters.proposals += steps
        counters.out_of_grid += out_of_grid
        counters.accepted += accepted
        self.n_accepted += accepted
        self.n_steps += steps
        self._steps_this_iteration += steps
        self.slot_steps += steps // self.n_slots

    def steps(self, n_steps_per_walker: int) -> None:
        """Run ``n_steps_per_walker`` super-steps (the REWL advance phase):
        the one-team case of :func:`advance_block`."""
        advance_block([self], n_steps_per_walker, self.hamiltonian, self.profiler)

    # ----------------------------------------------------------- iteration

    def is_flat(self) -> bool:
        """Histogram flatness over the reachable-bin set (shared histogram)."""
        prof = self.profiler
        t0 = prof.start("wl.flat_check") if prof is not None else None
        mask = self.visited
        flat = False
        if np.any(mask):
            h = self.histogram[mask]
            if not np.any(h == 0):
                flat = float(h.min()) >= self.flatness * float(h.mean())
        if prof is not None:
            prof.stop("wl.flat_check", t0)
        if flat:
            self.counters.flat_checks_passed += 1
        else:
            self.counters.flat_checks_failed += 1
        return flat

    def flatness_fraction(self) -> float:
        """min/mean of the shared visit histogram over visited bins.

        The quantity the flatness criterion thresholds, exposed as a
        continuous diagnostic for :mod:`repro.obs.convergence`; unlike
        :meth:`is_flat` this touches no counters.
        """
        mask = self.visited
        if not np.any(mask):
            return 0.0
        h = self.histogram[mask]
        mean = float(h.mean())
        return float(h.min()) / mean if mean > 0 else 0.0

    def fill_fraction(self) -> float:
        """Fraction of this window's bins visited so far (pure read)."""
        n = self.visited.shape[0]
        return float(np.count_nonzero(self.visited)) / n if n else 0.0

    def advance_modification_factor(self) -> None:
        """Halve ln f (respecting the 1/t floor) and reset the histogram.

        The 1/t floor uses *total* walker steps across slots — with a shared
        histogram receiving B deposits per super-step, total steps is the
        quantity the Belardinelli–Pereyra argument applies to.
        """
        self.n_iterations += 1
        self.iteration_steps.append(self._steps_this_iteration)
        self._steps_this_iteration = 0
        new_ln_f = self.ln_f / 2.0
        if self.schedule == "one_over_t":
            sweeps = max(1.0, self.n_steps / max(1, self.hamiltonian.n_sites))
            new_ln_f = max(new_ln_f, 1.0 / sweeps)
            if new_ln_f >= self.ln_f:
                new_ln_f = 1.0 / sweeps
        self.ln_f = new_ln_f
        self.histogram[:] = 0

    # ------------------------------------------------------------------ run

    def run(self, max_steps: int | None = None, telemetry=None) -> WangLandauResult:
        """Iterate until ``ln f ≤ ln_f_final`` or ``max_steps`` walker steps.

        ``max_steps`` defaults to ``self.cfg.max_steps`` and is never
        exceeded: a remainder shorter than one super-step ends the run.
        ``telemetry`` (a :class:`repro.obs.Telemetry`) is used per *WL
        iteration*, never per step, and is not stored on the sampler;
        enabling it changes no sampler state.
        """
        from repro.obs.profile import contribute_profile, profile_from_env

        if max_steps is None:
            max_steps = self.cfg.max_steps
        if self.profiler is None:
            env_profiler = profile_from_env()
            if env_profiler is not None:
                self.enable_profiling(env_profiler)
        profile_before = (
            self.profiler.as_dict() if self.profiler is not None else None
        )
        span = telemetry.span("wl.run") if telemetry is not None else nullcontext()
        if telemetry is not None:
            telemetry.emit("engine.native", **native.status())
        steps_before = self.n_steps
        n_rows = self.n_slots
        per_check = max(1, self.check_interval // n_rows)
        with span:
            while self.n_steps < max_steps and self.ln_f > self.ln_f_final:
                n = min(per_check, (max_steps - self.n_steps) // n_rows)
                if n == 0:
                    break
                self.steps(n)
                if self.is_flat():
                    self.advance_modification_factor()
                    if telemetry is not None:
                        telemetry.emit(
                            "wl_iteration",
                            iteration=self.n_iterations,
                            ln_f=self.ln_f,
                            steps=self.n_steps,
                            iteration_steps=self.iteration_steps[-1],
                        )
                elif self.schedule == "one_over_t" and self.ln_f <= 1.0 / max(
                    1.0, self.n_steps / max(1, self.hamiltonian.n_sites)
                ):
                    sweeps = max(1.0, self.n_steps / max(1, self.hamiltonian.n_sites))
                    self.ln_f = 1.0 / sweeps
        if telemetry is not None:
            telemetry.metrics.inc("wl.steps", self.n_steps - steps_before)
        if profile_before is not None:
            contribute_profile(self.profiler.delta_since(profile_before))
            if telemetry is not None:
                self.profiler.publish(telemetry.metrics)
        return self.result()

    def result(self) -> WangLandauResult:
        ln_g = self.ln_g.copy()
        if np.any(self.visited):
            ln_g -= ln_g[self.visited].min()
        return WangLandauResult(
            grid=self.grid,
            ln_g=ln_g,
            histogram=self.histogram.copy(),
            visited=self.visited.copy(),
            converged=self.ln_f <= self.ln_f_final,
            n_steps=self.n_steps,
            n_iterations=self.n_iterations,
            final_ln_f=self.ln_f,
            acceptance_rate=self.n_accepted / self.n_steps if self.n_steps else 0.0,
            iteration_steps=list(self.iteration_steps),
            counters=replace(self.counters),
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_slots={self.n_slots}, "
            f"n_bins={self.grid.n_bins}, ln_f={self.ln_f:.3g})"
        )


@register_sampler("wang_landau")
class WangLandauSampler(BatchedWangLandauSampler):
    """Single-walker Wang–Landau sampler: a one-row team.

    Keyword-only construction (DESIGN.md §11)::

        WangLandauSampler(
            hamiltonian=ham, proposal=prop, grid=grid,
            initial_config=cfg0, rng=seed, config=WLConfig(...),
        )

    ``initial_config`` is the walker's configuration, ``(n_sites,)`` (or
    one row); its energy must lie inside ``grid`` (use
    :func:`~repro.sampling.wang_landau.drive_into_range` first otherwise).
    ``config.batch_size`` is ignored: there is one row.

    Everything but the read views below is the team's, so a walker steps
    through :func:`advance_block` like any window of a campaign.  Note
    ``self.config`` is the *configuration array*; the tuning object is
    ``self.cfg``.
    """

    def __init__(self, *, hamiltonian, proposal, grid, initial_config, rng=None,
                 config: WLConfig = WLConfig()):
        initial = np.atleast_2d(initial_config)
        if initial.shape[0] != 1:
            raise ValueError(
                f"a {type(self).__name__} is one walker, but initial_config "
                f"has {initial.shape[0]} rows"
            )
        super().__init__(hamiltonian=hamiltonian, proposal=proposal, grid=grid,
                         initial_config=initial, rng=rng, config=config)

    @property
    def config(self) -> np.ndarray:
        """The walker's configuration (a view — copy before mutating)."""
        return self.configs[0]

    @property
    def energy(self) -> float:
        return float(self.energies[0])

    @property
    def current_bin(self) -> int:
        return int(self.bins[0])

    def step(self) -> bool:
        """One WL step (``steps(1)``); returns True when the move was accepted."""
        before = self.n_accepted
        self.steps(1)
        return self.n_accepted > before


#: Longest block drawn at once.  A block holds its drawn fields (two
#: integers per flip or bond row-step; a swap block none) and its acceptance
#: noise (one float per row-step), so the cap bounds block memory; longer
#: advance calls split into sub-blocks.
_MAX_BLOCK_STEPS = 512


def advance_block(teams, n_steps: int, hamiltonian, profiler=None) -> None:
    """``n_steps`` super-steps of every team in ``teams`` (DESIGN.md §16).

    Per sub-block of at most ``_MAX_BLOCK_STEPS`` steps, each team draws
    from its own stream, in this order: its proposal's
    :meth:`~repro.proposals.base.Proposal.draw_fields` (pooled draws, flip
    fields), the ``(n, K)`` acceptance noise, then each step's swap pairs as
    the step resolves; teams whose blocks share a key run as one array
    program (:func:`_run_block`).  A trajectory is thus a pure function of
    the seed and the sequence of ``n_steps`` values.

    Teams are Wang-Landau windows (``team.beta is None``) or canonical
    (:class:`~repro.sampling.metropolis.CanonicalTeam`, per-row ``beta``);
    the two modes never share a block, and a canonical block has no grids.

    A block runs in C (:func:`repro.kernels.superstep.run_block`) when the
    compiled super-step is loaded and the block is one it takes; otherwise
    in :func:`_run_block`, the reference the C loop must match bit for bit.
    Results do not depend on which ran.  A ``profiler`` observes without
    choosing the path: it times each team's field draw as
    ``proposal.<name>.fields`` and each group's block, on either path, as
    ``wl.block`` (which holds a swap block's pair draws; inside a NumPy
    block, the pooled rows' log q scoring is ``wl.block.score``; the C loop
    scores inline).
    """
    lib = native.library()
    log = worker_log()
    for start in range(0, n_steps, _MAX_BLOCK_STEPS):
        n = min(_MAX_BLOCK_STEPS, n_steps - start)
        groups: dict[tuple, list] = {}
        for team in teams:
            if profiler is not None:
                section = f"proposal.{team.proposal.name}.fields"
                t0 = profiler.start(section)
            fields = team.proposal.draw_fields(
                team.configs, team.hamiltonian, team.rng, n
            )
            if profiler is not None:
                profiler.stop(section, t0)
            groups.setdefault((fields.key, team.beta is None), []).append((team, fields))
        for (_, wang_landau), members in groups.items():
            grids = _stacked_grids([team for team, _ in members]) if wang_landau else None
            t_block = profiler.start_always("wl.block") if profiler is not None else None
            t0 = time.perf_counter() if log.enabled else 0.0
            if lib is None or not superstep.run_block(lib, members, n, hamiltonian, grids):
                _run_block(members, n, hamiltonian, grids, profiler, lib)
            elif log.enabled:
                log.emit("span", name="wl.native_block", path="wl.native_block",
                         dur_s=time.perf_counter() - t0, steps=n,
                         rows=sum(team.n_slots for team, _ in members))
            if profiler is not None:
                profiler.stop("wl.block", t_block)


#: team-set key -> (its grids, their StackedGrids).  Windows do not change
#: during a campaign, so the lookup tables are built once per set of teams
#: that advances together, not once per block.
_STACKS: dict[tuple, tuple] = {}


def _stacked_grids(teams) -> StackedGrids:
    grids = [team.grid for team in teams]
    sizes = [team.n_slots for team in teams]
    key = (*map(id, grids), *sizes)
    hit = _STACKS.get(key)
    if hit is None:
        if len(_STACKS) >= 64:
            _STACKS.clear()
        # holding the grids keeps their ids from being reused under the key
        hit = _STACKS[key] = (grids, StackedGrids(grids, sizes))
    return hit[1]


def _run_block(members, n: int, hamiltonian, grids, profiler=None, lib=None) -> None:
    """One block for teams of one field kind: every super-step runs once for
    all rows of all teams — resolve, one ΔE gather, one bin lookup, one
    sequential commit loop, one scatter — and team state is written back
    once at the end.

    The commit loop keeps row order inside a window and runs on flat Python
    lists (``ln g`` and bins of all windows end to end) that live for the
    whole block, so each decision still sees every earlier deposit.  With
    ``grids`` None the teams are canonical: row ``r`` accepts on
    ``ln u < −β_r·ΔE`` (MetropolisSampler's rule), and nothing is binned
    or deposited.

    A :class:`~repro.proposals.base.PooledBlock` adds candidate row-steps:
    first, rows whose candidate meets them holding no current log q are
    scored (:meth:`~repro.proposals.base.PooledBlock.score`, timed as
    ``wl.block.score``; through the compiled scorer when ``lib``, the loaded
    library, is given, as the C loop scores; a VAE estimate draws from its
    team's stream here, before the step's swap pairs); a candidate row
    then has the candidate's energy and ``ΔE = E_cand − E``, adds ``log
    q_cur − log q_cand`` to its ``log α`` (−∞ for a candidate with log q =
    +∞), and on acceptance takes the candidate row and its log q.

    This is the reference implementation of a block (and the path taken
    without a compiler, or under ``REPRO_NO_NATIVE=1``): ``superstep.c``
    reproduces it bit for bit, so change the two together.
    """
    teams = [team for team, _ in members]
    fields = members[0][1]
    if len(teams) > 1:
        fields = fields.stacked([f for _, f in members[1:]])
    sizes = [team.n_slots for team in teams]
    ends = np.cumsum(sizes).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    # One team steps its own arrays in place; several are gathered once per
    # block (their rows need not be contiguous anywhere) and written back.
    in_place = len(teams) == 1
    configs = teams[0].configs if in_place else np.concatenate(
        [team.configs for team in teams])
    energies = teams[0].energies if in_place else np.concatenate(
        [team.energies for team in teams])
    ln_u = np.log(np.concatenate(
        [team.rng.random((n, k)) for team, k in zip(teams, sizes)], axis=1
    )).tolist()
    canonical = grids is None
    if canonical:
        beta = np.concatenate([team.beta for team in teams]).tolist()
    else:
        offsets = grids.offsets.tolist()
        ln_g = np.concatenate([team.ln_g for team in teams]).tolist()
        bins = np.concatenate(
            [team.bins + off for team, off in zip(teams, offsets)]).tolist()
        hist = [0] * len(ln_g)
        ln_f = [team.ln_f for team in teams]
    n_out = [0] * len(teams)
    slot_accepted = [0] * ends[-1]
    rows = np.arange(ends[-1])
    streams = [(team.rng, lo, hi) for team, (lo, hi) in zip(teams, spans)]
    price = getattr(hamiltonian, fields.many) if fields.many else None
    pooled = fields.candidates is not None
    dq = None  # per row-step log q term of the pooled rows' log α
    if pooled:
        cand_configs, cand_energies, cand_log_q, cand_slot = fields.candidates
        log_q = np.zeros(ends[-1])
        held = np.full(ends[-1], -1, dtype=np.int64)
    scored = np.zeros(ends[-1], dtype=np.int64)  # rows whose log q was scored, per row

    for step in range(n):
        if pooled:
            scored[fields.score(step, configs, log_q, held, streams, lib, profiler)] += 1
        move = fields.resolve(step, configs, rows, streams)
        if pooled:
            pick = fields.arrays[0][step]
            local, taken = pick < 0, np.flatnonzero(pick >= 0)
            delta = np.zeros(ends[-1])
            if price is not None and local.any():
                delta[local] = price(configs[local], move[local, 0], move[local, 1])
            new_energies = energies + delta
            new_energies[taken] = cand_energies[pick[taken]]
            delta[taken] = new_energies[taken] - energies[taken]
            dq = np.zeros(ends[-1])  # log q_cur − log q_cand; 0 adds nothing
            dq[taken] = log_q[taken] - cand_log_q[pick[taken]]
            dq = dq.tolist()
        else:
            delta = price(configs, move[:, 0], move[:, 1])
            new_energies = energies + delta
        if not canonical:
            new_bins = grids.index_rows(new_energies).tolist()
        u = ln_u[step]
        accepted: list[int] = []
        if canonical:
            for r, d, u_r in zip(range(ends[-1]), delta.tolist(), u):
                log_alpha = -beta[r] * d
                if dq:
                    log_alpha += dq[r]
                if log_alpha >= 0.0 or u_r < log_alpha:
                    accepted.append(r)
                    slot_accepted[r] += 1
        else:
            for w, (lo, hi) in enumerate(spans):
                f = ln_f[w]
                for r, nb, u_r in zip(range(lo, hi), new_bins[lo:hi], u[lo:hi]):
                    cur = bins[r]
                    if nb < 0:
                        n_out[w] += 1
                    else:
                        log_alpha = ln_g[cur] - ln_g[nb]
                        if dq:
                            log_alpha += dq[r]
                        if log_alpha >= 0.0 or u_r < log_alpha:
                            bins[r] = cur = nb
                            accepted.append(r)
                            slot_accepted[r] += 1
                    # Update the (possibly unchanged) current bin — mandatory for WL.
                    ln_g[cur] += f
                    hist[cur] += 1
        if accepted:
            acc = np.asarray(accepted)
            energies[acc] = new_energies[acc]
            if pooled:
                acc, took = acc[local[acc]], acc[~local[acc]]
                held[acc] = -1
                if len(took):
                    configs[took] = cand_configs[pick[took]]
                    held[took] = cand_slot[pick[took]]
                    log_q[took] = cand_log_q[pick[took]]
            if len(acc):
                sites, values = fields.moves(configs, acc, move)
                configs[acc[:, None], sites] = values

    for w, (team, (lo, hi)) in enumerate(zip(teams, spans)):
        if not in_place:
            team.configs[:] = configs[lo:hi]
            team.energies[:] = energies[lo:hi]
        if not canonical:
            g_lo, g_hi = offsets[w], offsets[w + 1]
            team.ln_g[:] = ln_g[g_lo:g_hi]
            team.bins[:] = np.asarray(bins[lo:hi]) - g_lo
            deposits = np.asarray(hist[g_lo:g_hi])
            team.histogram += deposits
            team.visited |= deposits > 0
        team.slot_accepted += np.asarray(slot_accepted[lo:hi])
        team._tally(n * (hi - lo), sum(slot_accepted[lo:hi]), n_out[w],
                    scored=int(scored[lo:hi].sum()))
