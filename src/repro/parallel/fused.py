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
- :class:`ShmEngine` — the driver's advance step: worker ranks attach
  zero-copy and step their windows' rows in place; the controller sends
  each rank its jobs and settles every window as its rank's reply lands.
  Exchange and sync then run in the driver's round, as in process.

The ranks are forked from the controller on the first ``advance`` (see
:class:`~repro.parallel.comm.ShmWorld`), so they start warm — NumPy, the
package and the native library already loaded — and stay direct children
of the controller.  Each rank still rebuilds its teams from a plain-data
blob that crosses as pickled bytes, so a respawned rank starts exactly as
the first one did.

Bit-identity: a team's trajectory is a pure function of its seed and the
sequence of advance-call lengths, whichever teams share its block; both
backends issue the same lengths (``exchange_interval`` per round), the
``*_many`` kernels reduce row-wise, and exchange and sync are the driver's
own phases — so ``backend="shm"`` reproduces ``backend="fused"``
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
            _, epoch, rounds, n_steps, jobs = msg
            live = {}
            for w, rng_state in jobs:
                team = live[w] = teams[w]
                team.rng.bit_generator.state = rng_state
                team.counters = WalkerCounters()
            prof = next(iter(live.values())).profiler
            try:
                failed, retries = advance_windows(live, n_steps, ham, prof,
                                                  injector, rounds)
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

    The controller (rank 0) owns the round, which is the driver's own
    (:meth:`~repro.parallel.rewl.REWLDriver.run`); the engine is only its
    advance step.  Worker ranks own static window partitions
    (``rank_of = 1 + w % ranks``) and step them in place in the shared
    campaign arrays; :meth:`advance` hands each window to the driver's
    ``settle`` callback as its rank's reply lands, and a rank that dies
    mid-round is respawned.
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
        """Start the worker ranks (lazy: first :meth:`advance`)."""
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

    # ---------------------------------------------------------- the advance

    def advance(self, driver, active, settle) -> None:
        """One round's advance of the ``active`` windows on their ranks.

        Sends each rank its windows' jobs, then drains the replies of this
        round's epoch.  As a window's reply lands, its counters, RNG state
        and profile are merged into the controller's team and
        ``settle(w, exc)`` runs, ``exc`` None unless the window failed.
        """
        self.start()
        self._epoch += 1
        epoch = self._epoch
        jobs_by_rank: dict[int, list] = {}
        for w in active:
            jobs_by_rank.setdefault(self.rank_of[w], []).append(
                (w, driver.walkers[w][0].rng.bit_generator.state)
            )
        for rank, jobs in jobs_by_rank.items():
            self.comm.send(
                ("advance", epoch, driver.rounds, driver.cfg.exchange_interval, jobs),
                dest=rank
            )
        pending = set(active)
        while pending:
            try:
                rank, msg = self.comm.recv(timeout=_POLL_S)
            except TimeoutError:
                self._reap_dead_ranks(pending, settle)
                continue
            if msg[0] != "done" or msg[1] != epoch:
                continue  # stale reply from a respawned predecessor
            _, _, report, retries = msg
            driver._note_retries(retries)
            for w in sorted(report.keys() & pending):
                pending.discard(w)
                payload = report[w]
                if not payload["ok"]:
                    settle(w, RuntimeError(
                        f"window {w} advance failed on shm rank {rank}: "
                        f"{payload['error']}"
                    ))
                    continue
                team = driver.walkers[w][0]
                _merge_counters(team.counters, payload["counters"])
                team.rng.bit_generator.state = payload["rng"]
                if payload["profile"] is not None:
                    team._shm_profiler = payload["profile"]
                settle(w, None)

    def _reap_dead_ranks(self, pending, settle) -> None:
        """Fail the pending windows of every dead rank, then respawn it.

        Without a supervisor ``settle`` raises on the first such window, and
        nothing is respawned.
        """
        for rank, proc in list(self._proc.items()):
            dead = [w for w in sorted(pending) if self.rank_of[w] == rank]
            if proc.is_alive() or not dead:
                continue
            for w in dead:
                pending.discard(w)
                settle(w, RuntimeError(
                    f"shm worker rank {rank} died mid-advance "
                    f"(exitcode {proc.exitcode})"
                ))
            # Respawned on a fresh inbox.  The fork happens while this
            # process's queue feeder threads run; the rank touches only
            # queues and segments whose locks are process-shared or rebuilt
            # after a fork (DESIGN.md §16).
            self._proc[rank] = self.world.spawn(
                _shm_campaign_worker, rank, self._blobs[rank],
            )
