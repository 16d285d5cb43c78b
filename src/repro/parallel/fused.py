"""Shared-memory campaign backend (``backend="shm"``, DESIGN.md §16).

``backend="fused"`` steps every window's team in the driver's process
(:func:`repro.parallel.rewl.advance_windows`).  ``backend="shm"`` steps the
same teams, through the same function, on worker ranks that map the
campaign from shared memory:

- :class:`FusedCampaignState` — the storage format: all W·K walker
  configurations as rows of a single ``(W·K, n_sites)`` array, with
  per-window ``ln g`` / histogram planes and per-window ``ln f`` scalars
  packed alongside, allocated in :mod:`multiprocessing.shared_memory`
  segments (:class:`~repro.parallel.comm.ShmWorld`);
- :class:`FusedTeam` — a :class:`~repro.sampling.batched.
  BatchedWangLandauSampler` whose arrays are *views* into the campaign
  state and whose scalars live in shared blocks, so every driver phase that
  reads team state works unchanged on the controller;
- :class:`ShmEngine` — the driver hook: worker ranks attach zero-copy and
  step their windows' rows in place, and the controller drains per-rank
  completions *without a barrier* — replica-exchange pairs are processed
  (in strict schedule order, preserving the exchange RNG stream) as soon as
  both endpoints land, while other ranks keep stepping.

The ranks are forked from the controller on the first ``run_round`` (see
:class:`~repro.parallel.comm.ShmWorld`), so they start warm — NumPy, the
package and the native library already loaded — and stay direct children
of the controller.  Each rank still rebuilds its teams from a plain-data
blob that crosses as pickled bytes, so a respawned rank starts exactly as
the first one did.

Bit-identity: a team's trajectory is a pure function of its seed and the
sequence of advance-call lengths, whichever teams share its block; both
backends issue the same lengths (``exchange_interval`` per round), the
``*_many`` kernels reduce row-wise, and the exchange stream is consumed in
pair-schedule order — so ``backend="shm"`` reproduces ``backend="fused"``
bit for bit (pinned by ``tests/test_fused_campaign.py``).
"""

from __future__ import annotations

import os
from dataclasses import fields as dataclass_fields, replace

import numpy as np

from repro.faults import faults_from_env
from repro.lattice.configuration import CONFIG_DTYPE
from repro.parallel.comm import _POLL_S, ShmRank, ShmWorld
from repro.sampling.batched import BatchedWangLandauSampler
from repro.sampling.wang_landau import WalkerCounters

__all__ = ["FusedCampaignState", "FusedTeam", "ShmEngine"]


# --------------------------------------------------------------------------
# campaign state
# --------------------------------------------------------------------------


class FusedCampaignState:
    """All W windows × K walkers as one set of flat campaign arrays.

    ========== ==================== =========================================
    array      shape                contents
    ========== ==================== =========================================
    configs    (W·K, n_sites)       walker configurations, window-major rows
    energies   (W·K,)               current energies
    bins       (W·K,)               current window-grid bin per walker
    ln_g       (W, width)           per-window shared ln g estimate
    histogram  (W, width)           per-window visit histogram
    visited    (W, width)           per-window visited mask
    slot_steps (W, K)               per-slot step counters
    slot_accepted (W, K)            per-slot accept counters
    ln_f       (W,)                 per-window modification factor
    counts     (W, 3)               n_steps / n_accepted / steps-this-iter
    ========== ==================== =========================================

    ``make_windows`` gives every window the same integer bin width, which is
    what makes the rectangular ``(W, width)`` planes possible.  The arrays
    come from an allocator — :meth:`~repro.parallel.comm.ShmWorld.alloc_array`
    for the named shared-memory segments worker ranks map zero-copy.
    """

    FIELDS = ("configs", "energies", "bins", "ln_g", "histogram", "visited",
              "slot_steps", "slot_accepted", "ln_f", "counts")

    def __init__(self, n_windows: int, walkers_per_window: int, arrays: dict):
        self.n_windows = int(n_windows)
        self.walkers_per_window = int(walkers_per_window)
        for name in self.FIELDS:
            setattr(self, name, arrays[name])

    @classmethod
    def specs(cls, n_windows: int, walkers_per_window: int, n_sites: int,
              width: int, config_dtype=CONFIG_DTYPE) -> dict:
        """``{name: (shape, dtype)}`` for every campaign array."""
        w, k = int(n_windows), int(walkers_per_window)
        rows = w * k
        return {
            "configs": ((rows, int(n_sites)), np.dtype(config_dtype)),
            "energies": ((rows,), np.dtype(np.float64)),
            "bins": ((rows,), np.dtype(np.int64)),
            "ln_g": ((w, int(width)), np.dtype(np.float64)),
            "histogram": ((w, int(width)), np.dtype(np.int64)),
            "visited": ((w, int(width)), np.dtype(np.bool_)),
            "slot_steps": ((w, k), np.dtype(np.int64)),
            "slot_accepted": ((w, k), np.dtype(np.int64)),
            "ln_f": ((w,), np.dtype(np.float64)),
            "counts": ((w, 3), np.dtype(np.int64)),
        }

    @classmethod
    def allocate(cls, *, n_windows: int, walkers_per_window: int,
                 n_sites: int, width: int, alloc,
                 config_dtype=CONFIG_DTYPE) -> "FusedCampaignState":
        """Fresh campaign arrays, each from ``alloc(name, shape, dtype)``."""
        arrays = {
            name: alloc(name, shape, dtype)
            for name, (shape, dtype) in
            cls.specs(n_windows, walkers_per_window, n_sites, width,
                      config_dtype).items()
        }
        return cls(n_windows, walkers_per_window, arrays)

    @classmethod
    def attach(cls, comm: ShmRank, n_windows: int,
               walkers_per_window: int) -> "FusedCampaignState":
        """Map the campaign arrays of an :class:`ShmWorld` (worker side)."""
        arrays = {name: comm.shared_array(name) for name in cls.FIELDS}
        return cls(n_windows, walkers_per_window, arrays)

    def rows(self, w: int) -> slice:
        """Row slice of window ``w``'s walkers in the flat arrays."""
        k = self.walkers_per_window
        return slice(w * k, (w + 1) * k)


# --------------------------------------------------------------------------
# view-backed team
# --------------------------------------------------------------------------


def _shared_scalar(name: str, array: str, column, cast):
    """A team scalar kept in ``state.<array>[w]`` (or ``[w, column]``) while
    the team is bound (``_fused = (state, w)``), in the instance dict otherwise."""

    def cell(ref):
        state, w = ref
        return getattr(state, array), (w if column is None else (w, column))

    def fget(self):
        ref = self.__dict__.get("_fused")
        if ref is None:
            return self.__dict__[name]
        block, index = cell(ref)
        return cast(block[index])

    def fset(self, value):
        ref = self.__dict__.get("_fused")
        if ref is None:
            self.__dict__[name] = value
        else:
            block, index = cell(ref)
            block[index] = cast(value)

    return property(fget, fset)


class FusedTeam(BatchedWangLandauSampler):
    """A batched window team whose storage lives in a campaign state.

    Array attributes (``configs``, ``ln_g``, …) are plain instance-dict
    entries rebound to views of the fused arrays — every in-place update of
    the sampler lands directly in campaign (possibly shared) memory.  Scalar walker
    state (``ln_f``, ``n_steps``, ``n_accepted``, the per-iteration step
    counter) is promoted to properties over the state's scalar blocks, so a
    controller halving ``ln_f`` is immediately visible to the worker rank
    stepping that window.

    Pickling (:meth:`__getstate__`) drops the binding and writes the views'
    bytes: supervisor snapshots and checkpoints stay plain data, and an
    unpickled team owns its arrays and behaves as an ordinary batched
    sampler until :meth:`adopt` rebinds it (the driver's ``_retag_window``
    hook does this after any rollback/restore).
    """

    _ROW_ARRAYS = ("configs", "energies", "bins")  # one row per walker
    _ARRAYS = _ROW_ARRAYS + ("ln_g", "histogram", "visited", "slot_steps",
                             "slot_accepted")        # one row per window
    _SCALARS = ("ln_f", "n_steps", "n_accepted", "_steps_this_iteration")

    # -- shared scalars ----------------------------------------------------

    ln_f = _shared_scalar("ln_f", "ln_f", None, float)
    n_steps = _shared_scalar("n_steps", "counts", 0, int)
    n_accepted = _shared_scalar("n_accepted", "counts", 1, int)
    _steps_this_iteration = _shared_scalar("_steps_this_iteration", "counts", 2, int)

    # -- binding -----------------------------------------------------------

    @classmethod
    def adopt(cls, team, state: FusedCampaignState, w: int,
              push: bool = True):
        """Bind ``team``'s storage into ``state``'s window-``w`` slots.

        ``push=True`` (controller side) writes the team's current values
        into the campaign arrays first — the authoritative state moves into
        the fused storage.  ``push=False`` (worker attach, and rebinds
        where the shared arrays already hold the truth) only installs the
        views, discarding whatever the team object held.  Idempotent: a
        team that is already bound may be adopted again after a rollback
        replaced its arrays.
        """
        if push:
            scalars = {n: getattr(team, n) for n in cls._SCALARS}
            arrays = {n: np.asarray(getattr(team, n)) for n in cls._ARRAYS}
        if team.__class__ is not cls:
            team.__class__ = cls
        d = team.__dict__
        for n in cls._SCALARS:
            d.pop(n, None)
        d["_fused"] = (state, w)
        rows = state.rows(w)
        for n in cls._ARRAYS:
            plane = getattr(state, n)
            view = plane[rows] if n in cls._ROW_ARRAYS else plane[w]
            if push:
                view[...] = arrays[n]
            d[n] = view
        if push:
            for n, v in scalars.items():
                setattr(team, n, v)  # through the property → shared block
        return team

    @classmethod
    def detach(cls, team) -> None:
        """Un-bind: copy shared state into owned arrays/scalars.

        Called before the shared segments are unlinked so the controller's
        teams (and anything holding them, e.g. a result built later) never
        dangle into freed memory.
        """
        d = team.__dict__
        if "_fused" not in d:
            return
        scalars = {n: getattr(team, n) for n in cls._SCALARS}
        del d["_fused"]
        d.update(scalars)
        for n in cls._ARRAYS:
            d[n] = np.array(d[n], copy=True)

    @classmethod
    def attach(cls, *, state: FusedCampaignState, w: int, hamiltonian,
               proposal, grid, wl_cfg, rng=None) -> "FusedTeam":
        """Construct a worker-side team over existing shared state.

        Unlike ``__init__``, nothing is computed or written: the shared
        arrays already hold the controller's authoritative walker state,
        and the RNG stream arrives with every advance command.
        """
        team = object.__new__(cls)
        team._configure(replace(wl_cfg, batch_size=state.walkers_per_window),
                        hamiltonian, proposal, grid, rng)
        cls.adopt(team, state, w, push=False)
        return team

    # -- pickling ----------------------------------------------------------

    def __getstate__(self):
        # The array views stay: pickling writes their bytes, so an
        # unpickled team owns its arrays without a copy made here first.
        d = {k: v for k, v in self.__dict__.items() if k != "_fused"}
        for n in self._SCALARS:
            d[n] = getattr(self, n)
        return d

    def __setstate__(self, state):
        self.__dict__.update(state)


# --------------------------------------------------------------------------
# shared-memory engine (backend="shm")
# --------------------------------------------------------------------------


def _merge_counters(dst: WalkerCounters, delta: WalkerCounters) -> None:
    for f in dataclass_fields(dst):
        setattr(dst, f.name, getattr(dst, f.name) + getattr(delta, f.name))


def _shm_campaign_worker(handle, rank, blob):
    """Worker-rank main: attach the campaign state, serve advance commands.

    Stateless between commands by construction — walker arrays live in the
    shared segments and the RNG stream arrives with every command — so a
    crashed rank can be respawned with the same blob and simply resume.
    A respawned rank reads a fresh inbox (:meth:`ShmWorld.spawn`), so no
    command queued for its predecessor reaches it.
    """
    from repro.obs.profile import SectionProfiler
    from repro.parallel.rewl import advance_windows

    comm = ShmRank(handle, rank)
    try:
        state = FusedCampaignState.attach(
            comm, blob["n_windows"], blob["walkers_per_window"]
        )
        injector = faults_from_env()
        ham = blob["hamiltonian"]
        teams = {}
        for spec in blob["windows"]:
            team = FusedTeam.attach(
                state=state, w=spec["w"], hamiltonian=ham,
                proposal=spec["proposal"], grid=spec["grid"],
                wl_cfg=blob["wl_cfg"],
            )
            team.obs_tag = (spec["w"], None)
            if blob["profile_every"]:
                team.enable_profiling(
                    SectionProfiler(sample_every=blob["profile_every"])
                )
            teams[spec["w"]] = team
        while True:
            _, msg = comm.recv()
            if msg[0] == "stop":
                break
            _, epoch, n_steps, jobs = msg
            live = {}
            for w, rng_state in jobs:
                team = live[w] = teams[w]
                team.rng.bit_generator.state = rng_state
                team.counters = WalkerCounters()
            prof = next(iter(live.values())).profiler
            try:
                failed, retries = advance_windows(live, n_steps, ham, prof,
                                                  injector)
            except Exception as exc:  # pragma: no cover - defensive
                failed, retries = dict.fromkeys(live, exc), []
            report = {
                w: {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                for w, exc in failed.items()
            }
            for w, team in live.items():
                if w not in report:
                    report[w] = {
                        "ok": True,
                        "counters": team.counters,
                        "rng": team.rng.bit_generator.state,
                        "profile": team.profiler,
                    }
            comm.send(("done", epoch, report, retries), dest=0)
    finally:
        comm.close()


class ShmEngine:
    """Zero-copy multiprocess campaign engine (``backend="shm"``).

    The controller (rank 0) owns the round structure; worker ranks own
    static window partitions and step them in place in the shared campaign
    arrays.  Rounds are overlapped: the controller drains per-rank
    completions as they land — guarding, snapshotting, exchanging (strict
    pair-schedule order, so the exchange RNG stream is untouched) and
    syncing each window the moment it is ready, while slower ranks keep
    stepping.  Exchange proposals therefore never barrier the stepping.
    """

    def __init__(self, driver, n_ranks: int | None = None):
        n_windows = len(driver.windows)
        k = driver.cfg.walkers_per_window
        if n_ranks is None:
            n_ranks = min(n_windows, max(1, (os.cpu_count() or 2) - 1))
        self.n_workers = max(1, min(int(n_ranks), n_windows))
        widths = {spec.grid.n_bins for spec in driver.windows}
        if len(widths) != 1:
            raise ValueError(
                f"shm campaign needs a common window width, got {sorted(widths)}"
            )
        first = driver.walkers[0][0].configs
        self.world = ShmWorld(self.n_workers + 1)
        self.state = FusedCampaignState.allocate(
            n_windows=n_windows, walkers_per_window=k, n_sites=first.shape[1],
            width=widths.pop(), config_dtype=first.dtype,
            alloc=self.world.alloc_array,
        )
        self.rank_of = [1 + (w % self.n_workers) for w in range(n_windows)]
        self.comm = ShmRank(self.world.handle(), 0)
        wl_cfg = driver.walkers[0][0].cfg
        profile_every = (
            driver.profiler.sample_every if driver.profiler is not None else 0
        )
        self._blobs = {}
        for rank in range(1, self.n_workers + 1):
            wins = [
                {
                    "w": w,
                    "proposal": driver.proposal_factory(),
                    "grid": driver.windows[w].grid,
                }
                for w in range(n_windows) if self.rank_of[w] == rank
            ]
            self._blobs[rank] = {
                "n_windows": n_windows, "walkers_per_window": k,
                "hamiltonian": driver.hamiltonian, "wl_cfg": wl_cfg,
                "windows": wins, "profile_every": profile_every,
            }
        self._proc: dict[int, object] = {}
        self._epoch = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------ lifecycle

    def bind_window(self, driver, w: int) -> None:
        """(Re-)bind window ``w``'s team into the shared campaign arrays."""
        FusedTeam.adopt(driver.walkers[w][0], self.state, w, push=True)

    def start(self) -> None:
        """Start the worker ranks (lazy: first ``run_round`` call)."""
        if self._started:
            return
        for rank, blob in self._blobs.items():
            self._proc[rank] = self.world.spawn(_shm_campaign_worker, rank,
                                                blob)
        self._started = True

    def close(self, driver=None) -> None:
        """Stop workers, detach the driver's teams, unlink the segments."""
        if self._closed:
            return
        self._closed = True
        try:
            if driver is not None:
                for team in (t[0] for t in driver.walkers):
                    FusedTeam.detach(team)
            if self._started:
                for rank, proc in self._proc.items():
                    if proc.is_alive():
                        try:
                            self.comm.send(("stop",), dest=rank)
                        except Exception:
                            pass
                for proc in self._proc.values():
                    proc.join(timeout=2.0)
        finally:
            self.comm.close()
            self.world.close()

    # ------------------------------------------------------------ the round

    def run_round(self, driver) -> None:
        """One overlapped advance→guard→exchange→sync round.

        The exchange schedule is fixed at round start; a window quarantined
        *mid-round* has its pairs skipped without RNG draws (the re-paired
        surviving topology starts next round — see DESIGN.md §16), so clean
        rounds are bit-identical to the barriered phases.
        """
        self.start()
        cfg = driver.cfg
        sup = driver.supervisor
        prof = driver.profiler
        n_windows = len(driver.windows)
        active = [
            w for w in range(n_windows)
            if not driver.window_converged[w]
            and not driver.window_quarantined[w]
        ]
        self._epoch += 1
        epoch = self._epoch
        jobs_by_rank: dict[int, list] = {}
        for w in active:
            team = driver.walkers[w][0]
            jobs_by_rank.setdefault(self.rank_of[w], []).append(
                (w, team.rng.bit_generator.state)
            )
        # One batched team is one advance task: metric parity with the
        # classic batched path (steps = tasks × interval, super-steps).
        steps = len(active) * cfg.exchange_interval
        t_adv = prof.start_always("rewl.advance") if prof is not None else None
        with driver.obs.span(
            "advance", round=driver.rounds,
            walkers=len(active), steps=steps,
        ):
            for rank, jobs in jobs_by_rank.items():
                self.comm.send(
                    ("advance", epoch, cfg.exchange_interval, jobs), dest=rank
                )
            driver.rounds += 1
            driver.obs.metrics.inc("rewl.rounds")
            driver.obs.metrics.inc("rewl.steps", steps)

            pairs = driver._exchange_pairs()[driver.rounds % 2::2]
            win_pairs: dict[int, list[int]] = {w: [] for w in range(n_windows)}
            for i, (left, right) in enumerate(pairs):
                win_pairs[left].append(i)
                win_pairs[right].append(i)
            pair_done = [False] * len(pairs)
            pending = set(active)
            ready = set(range(n_windows)) - pending
            synced: set[int] = set()
            next_pair = 0

            def settle_pairs():
                # Strict schedule order keeps the shared exchange RNG
                # stream identical to the barriered exchange phase.
                nonlocal next_pair
                while next_pair < len(pairs):
                    left, right = pairs[next_pair]
                    if left not in ready or right not in ready:
                        return
                    te = (
                        prof.start_always("rewl.exchange_round")
                        if prof is not None else None
                    )
                    with driver.obs.span("exchange", round=driver.rounds,
                                         pair=left):
                        driver._exchange_pair(left, right)
                    if prof is not None:
                        prof.stop("rewl.exchange_round", te)
                    pair_done[next_pair] = True
                    next_pair += 1

            def sync_ready():
                for w in active:
                    if (
                        w in ready and w not in synced
                        and all(pair_done[i] for i in win_pairs[w])
                    ):
                        ts = (
                            prof.start_always("rewl.sync")
                            if prof is not None else None
                        )
                        with driver.obs.span("synchronize",
                                             round=driver.rounds, window=w):
                            driver._sync_window(w)
                        if prof is not None:
                            prof.stop("rewl.sync", ts)
                        synced.add(w)

            def window_done(w, payload, rank):
                team = driver.walkers[w][0]
                if payload["ok"]:
                    _merge_counters(team.counters, payload["counters"])
                    team.rng.bit_generator.state = payload["rng"]
                    if payload.get("profile") is not None:
                        team._shm_profiler = payload["profile"]
                    if sup is not None:
                        tg = (
                            prof.start_always("rewl.guard")
                            if prof is not None else None
                        )
                        sup.guard_window(driver, w)
                        if not driver.window_quarantined[w]:
                            sup.snapshot_window(driver, w)
                        if prof is not None:
                            prof.stop("rewl.guard", tg)
                else:
                    driver._window_failed(w, RuntimeError(
                        f"window {w} advance failed on shm rank {rank}: "
                        f"{payload['error']}"
                    ))
                ready.add(w)

            while pending:
                try:
                    rank, msg = self.comm.recv(timeout=_POLL_S)
                except TimeoutError:
                    self._reap_dead_ranks(driver, pending, ready)
                    settle_pairs()
                    sync_ready()
                    continue
                if msg[0] != "done" or msg[1] != epoch:
                    continue  # stale reply from a respawned predecessor
                _, _, report, retries = msg
                driver._note_retries(retries)
                for w in sorted(report):
                    if w in pending:
                        pending.discard(w)
                        window_done(w, report[w], rank)
                settle_pairs()
                sync_ready()
            settle_pairs()
            sync_ready()
            if sup is not None:
                sup.end_guard_round()
        if prof is not None:
            prof.stop("rewl.advance", t_adv)

    def _reap_dead_ranks(self, driver, pending, ready) -> None:
        """Fail windows whose rank died; respawn the rank for next round."""
        sup = driver.supervisor
        for rank, proc in list(self._proc.items()):
            if proc.is_alive():
                continue
            dead = [w for w in sorted(pending) if self.rank_of[w] == rank]
            if not dead:
                continue
            if sup is None:
                raise RuntimeError(
                    f"shm worker rank {rank} died while advancing windows "
                    f"{dead} (exitcode {proc.exitcode})"
                )
            # Respawn (on a fresh inbox), then hand the lost windows to the
            # supervisor.  The fork happens while this process's queue
            # feeder threads run; the rank touches only queues and segments
            # whose locks are process-shared or rebuilt after a fork
            # (DESIGN.md §16).
            self._proc[rank] = self.world.spawn(
                _shm_campaign_worker, rank, self._blobs[rank],
            )
            for w in dead:
                pending.discard(w)
                sup.on_window_failure(
                    driver, w,
                    RuntimeError(f"worker rank {rank} died mid-advance"),
                )
                ready.add(w)
