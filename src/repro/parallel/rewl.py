"""Replica-exchange Wang–Landau (REWL) driver.

The parallel backbone of DeepThermo: the global energy range is cut into
overlapping windows (:mod:`repro.parallel.windows`), each window is sampled
by a team of K walkers — one :class:`~repro.sampling.batched.
BatchedWangLandauSampler` stepping K walker slots against a shared ln g —
and the driver alternates

1. **advance** — every unconverged window's team runs ``exchange_interval``
   super-steps, all teams as one block (:func:`advance_windows`), in this
   process (``backend="fused"``) or on shared-memory worker ranks
   (``backend="shm"``, :mod:`repro.parallel.fused`); a team's trajectory is
   a function of its seed and the advance-call lengths only, so both
   backends are bit-identical.  Each window that advanced is *settled* as it
   lands: a failed one goes to the supervisor, a healthy one is guarded and
   snapshotted,
2. **exchange** — walkers in adjacent windows swap configurations with the
   exact REWL acceptance rule
   ``ln u < [ln g_A(E_A) − ln g_A(E_B)] + [ln g_B(E_B) − ln g_B(E_A)]``,
   possible only when both energies lie in both windows (the overlap),
3. **synchronize** — when a window's shared histogram is flat, its ln g is
   shifted to a zero minimum, the histogram reset, and the window's
   modification factor advances (Vogel, Li, Wüst & Landau 2013).

A window is converged when its ``ln f`` reaches ``ln_f_final``; converged
windows stop advancing and exchanging.  The per-window ln g pieces are
stitched into a global density of states by :mod:`repro.dos.stitching`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.faults import InjectedFault, faults_from_env
from repro.kernels import native
from repro.obs import Instrumentation, Telemetry
from repro.obs.convergence import ConvergenceConfig, ConvergenceLedger
from repro.obs.costattr import COST_KIND, attribute_cost, publish_cost
from repro.obs.events import TRACE_ENV_VAR, worker_log
from repro.obs.health import HealthConfig, HealthMonitor
from repro.obs.profile import SectionProfiler, contribute_profile, profile_from_env
from repro.obs.sample import RoundSample, WindowSample
from repro.obs.server import OBS_PORT_ENV_VAR
from repro.obs.timeseries import TimeSeriesConfig, TimeSeriesRecorder
from repro.parallel.windows import WindowSpec, make_windows, surviving_pairs
from repro.resilience.supervisor import CampaignSupervisor, ResilienceConfig
from repro.sampling.batched import BatchedWangLandauSampler, advance_block
from repro.sampling.binning import EnergyGrid
from repro.sampling.wang_landau import WalkerCounters, WLConfig, drive_into_range
from repro.util.rng import RngFactory
from repro.util.validation import check_in_range, check_integer, check_probability

__all__ = ["REWLConfig", "REWLDriver", "REWLResult", "WalkerSnapshot"]


#: Attempts a window gets beyond the first in one round under fault
#: injection (``REPRO_FAULTS``); a window that uses them all up fails.
_WORKER_RETRIES = 8


def _resolve(given, config_type, from_env, build):
    """An observer from an instance, a config (``build(config)``), or None
    (the environment's config, else no observer)."""
    if given is None:
        given = from_env()
    return build(given) if isinstance(given, config_type) else given


def _step_window(team, n_steps: int, hamiltonian, profiler):
    """One window's advance: the unit a fault wraps (it returns the team)."""
    advance_block([team], n_steps, hamiltonian, profiler)
    return team


def advance_windows(teams: dict, n_steps: int, hamiltonian, profiler=None,
                    faults=None) -> tuple[dict, list]:
    """``n_steps`` super-steps of every team in ``teams`` (``{window: team}``).

    The advance phase of both backends: the driver calls it in process, a
    shm worker rank on the windows it owns.  Without ``faults`` every team
    advances in one :func:`~repro.sampling.batched.advance_block` call.
    Under fault injection each window is stepped alone, so a fault hits one
    window: a failed attempt is retried from the same state (faults fire
    before the body runs) up to ``_WORKER_RETRIES`` times.  Team streams are
    independent, so a run whose faults were all retried away is bit-identical
    to the clean run.

    Returns ``(failed, retries)``: ``{window: exception}`` for windows whose
    retries ran out, and one ``(window, attempt, error, injected)`` record per
    retry — plain data, so a rank can send it back in its reply.  With
    ``REPRO_TRACE_DIR`` set, each call writes one ``worker_span`` record.
    """
    log = worker_log()
    t0 = time.perf_counter() if log.enabled else 0.0
    failed: dict[int, Exception] = {}
    retries: list[tuple] = []
    if faults is None:
        advance_block(list(teams.values()), n_steps, hamiltonian, profiler)
    else:
        for w, team in teams.items():
            attempt = 0
            while True:
                try:
                    faults.wrap(_step_window, key=w, attempt=attempt)(
                        team, n_steps, hamiltonian, profiler
                    )
                    break
                except Exception as exc:  # noqa: BLE001 - retried, then reported
                    attempt += 1
                    if attempt > _WORKER_RETRIES:
                        failed[w] = exc
                        break
                    retries.append((w, attempt, f"{type(exc).__name__}: {exc}",
                                    isinstance(exc, InjectedFault)))
    if log.enabled:
        log.emit(
            "worker_span", name="advance", dur_s=time.perf_counter() - t0,
            window=None, walker=None,
            steps=n_steps * sum(team.n_slots for team in teams.values()),
        )
    return failed, retries


#: Campaign backends ``REWLConfig.backend`` accepts: every window's team
#: stepped in this process, or on shared-memory worker ranks
#: (:mod:`repro.parallel.fused`).
BACKENDS = ("fused", "shm")


@dataclass(frozen=True)
class REWLConfig:
    """Tuning knobs for :class:`REWLDriver`.

    Each window is sampled by one :class:`BatchedWangLandauSampler` team of
    ``walkers_per_window`` slots sharing the window's ln g.  ``backend``
    selects where the teams step: ``"fused"`` advances them all in this
    process, ``"shm"`` on worker ranks that map the campaign arrays from
    shared memory (:mod:`repro.parallel.fused`); the two are bit-identical.
    ``shm_ranks`` caps the worker ranks of the shm backend (default: one
    per window, bounded by the CPU count).
    """

    n_windows: int = 4
    walkers_per_window: int = 2
    overlap: float = 0.5
    exchange_interval: int = 2_000
    ln_f_init: float = 1.0
    ln_f_final: float = 1e-6
    flatness: float = 0.8
    check_interval: int | None = None  # per-walker WL flatness cadence
    seed: int = 0
    max_rounds: int = 100_000
    drive_max_steps: int = 2_000_000
    checkpoint_interval: int = 0  # rounds between snapshots (0 = off)
    backend: str = "fused"
    shm_ranks: int | None = None

    def __post_init__(self):
        check_integer("n_windows", self.n_windows, minimum=1)
        check_integer("walkers_per_window", self.walkers_per_window, minimum=1)
        check_integer("exchange_interval", self.exchange_interval, minimum=1)
        check_probability("flatness", self.flatness)
        # Fail here rather than deep inside make_windows / drive_into_range.
        check_in_range("overlap", self.overlap, 0.1, 0.9)
        check_integer("max_rounds", self.max_rounds, minimum=1)
        check_integer("drive_max_steps", self.drive_max_steps, minimum=1)
        check_integer("checkpoint_interval", self.checkpoint_interval, minimum=0)
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.shm_ranks is not None:
            check_integer("shm_ranks", self.shm_ranks, minimum=1)


@dataclass
class WalkerSnapshot:
    """Post-run view of one walker (diagnostics)."""

    window: int
    walker: int
    n_steps: int
    acceptance_rate: float
    final_energy: float
    counters: WalkerCounters = field(default_factory=WalkerCounters)


@dataclass
class REWLResult:
    """Merged per-window densities of states plus run statistics."""

    global_grid: EnergyGrid
    windows: list[WindowSpec]
    window_ln_g: list[np.ndarray]
    window_visited: list[np.ndarray]
    window_iterations: list[int]
    converged: bool
    rounds: int
    total_steps: int
    exchange_attempts: np.ndarray
    exchange_accepts: np.ndarray
    walkers: list[WalkerSnapshot] = field(default_factory=list)
    telemetry: dict = field(default_factory=dict)
    degraded: bool = False
    quarantined: list[int] = field(default_factory=list)
    window_dispositions: list[dict] = field(default_factory=list)

    @property
    def exchange_rates(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                self.exchange_attempts > 0,
                self.exchange_accepts / np.maximum(self.exchange_attempts, 1),
                np.nan,
            )

    def stitched(self, allow_gaps: bool | None = None):
        """Global ln g stitched over windows (see :mod:`repro.dos`).

        Quarantined windows are stitched *around* (skipped, with gap
        bookkeeping on the returned :class:`~repro.dos.stitching.
        StitchedDoS`); ``allow_gaps`` defaults to True exactly when some
        window was quarantined, so complete runs keep the strict
        everything-must-connect behavior.
        """
        from repro.dos.stitching import stitch_windows

        if allow_gaps is None:
            allow_gaps = bool(self.quarantined)
        t0 = time.perf_counter()
        out = stitch_windows(
            self.global_grid, self.windows, self.window_ln_g,
            self.window_visited, skip=tuple(self.quarantined),
            allow_gaps=allow_gaps,
        )
        self._note_stitch_cost(time.perf_counter() - t0)
        return out

    def _note_stitch_cost(self, seconds: float) -> None:
        """Fold stitch wall time into this result's cost attribution.

        Stitching happens after the driver's profile was harvested, so the
        ``rewl.stitch`` section is appended to the profile dict here and
        the attribution recomputed — only when profiling was on (the run
        carries a profile) and only for the first stitch (repeat calls on
        the same result would inflate the section).
        """
        profile = self.telemetry.get("profile")
        if not isinstance(profile, dict) or "rewl.stitch" in profile:
            return
        seconds = float(seconds)
        profile["rewl.stitch"] = {
            "calls": 1, "timed": 1, "total_s": seconds, "mean_s": seconds,
            "est_total_s": seconds, "min_s": seconds, "max_s": seconds,
        }
        self.telemetry["cost"] = attribute_cost(profile)


class REWLDriver:
    """Windows × walkers replica-exchange Wang-Landau.

    Keyword-only construction::

        REWLDriver(
            hamiltonian=ham, proposal_factory=make_prop, grid=grid,
            initial_config=cfg0, config=REWLConfig(...),
        )

    Parameters
    ----------
    hamiltonian : Hamiltonian
    proposal_factory : callable
        ``proposal_factory() -> Proposal``; called twice per window (the
        drive into it, then its team) so stateful proposals (DL caches) are
        never shared.  Must be picklable for ``backend="shm"`` (worker
        ranks build their own proposals from it — module-level factories
        qualify, lambdas don't; the driver calls it in-process and ships
        the instances).
    grid : EnergyGrid
        The global energy grid.
    initial_config : numpy.ndarray
        A valid configuration; each walker gets an independently shuffled
        copy driven into its window.
    config : REWLConfig
        Campaign shape and backend (``"fused"`` in process, ``"shm"`` on
        shared-memory worker ranks).
    instrumentation : repro.obs.Instrumentation, optional
        Observability bundle — ``telemetry`` (metrics/spans/events handle),
        ``profiler`` (sampling section profiler), ``health`` (heartbeats +
        stall/anomaly detection), ``convergence`` (scientific diagnostics
        ledger), and ``timeseries`` (live status-board recorder) in one
        value.  Every field falls back to its environment knob
        (``REPRO_PROFILE``, ``REPRO_HEALTH``, ``REPRO_CONVERGENCE``,
        ``REPRO_TIMESERIES`` — and ``REPRO_OBS_PORT`` implies a recorder);
        none of them draw RNG, so an instrumented run stays bit-identical.
    checkpoint_path : path-like, optional
        Where periodic snapshots land when ``config.checkpoint_interval``
        is set; resume with :func:`repro.parallel.checkpoint.maybe_resume`.
    resilience : repro.resilience.CampaignSupervisor or ResilienceConfig,
        optional.  Campaign self-healing — numerical guard rails at
        super-step boundaries, bounded rollback to last-good in-memory
        snapshots, window quarantine with exchange re-pairing, and
        wall-clock/round/step budgets with clean terminate-and-harvest
        (DESIGN.md §14).  Defaults to the ``REPRO_RESILIENCE`` environment
        knob; guards draw no random numbers, so a guarded run that never
        trips is bit-identical to an unguarded one.  Guard trips act on
        window *teams* (rollback restores the window's team in place;
        quarantine drops the window from the schedule) — shm worker
        processes are never killed for them.

    Under fault injection (``REPRO_FAULTS``, read at construction) each
    window advances alone with up to ``_WORKER_RETRIES`` retries per round
    (:func:`advance_windows`); a window that exhausts them goes to the
    supervisor, or raises when there is none.
    """

    def __init__(self, *, hamiltonian=None, proposal_factory=None, grid=None,
                 initial_config=None, config=None, instrumentation=None,
                 checkpoint_path=None, resilience=None):
        inst = instrumentation if instrumentation is not None else Instrumentation()
        missing = [
            k for k, v in (
                ("hamiltonian", hamiltonian),
                ("proposal_factory", proposal_factory),
                ("grid", grid),
                ("initial_config", initial_config),
            )
            if v is None
        ]
        if missing:
            raise TypeError(f"REWLDriver() missing required arguments {missing}")
        self.hamiltonian = hamiltonian
        self.grid = grid
        self.proposal_factory = proposal_factory
        self.cfg = config or REWLConfig()
        self._engine = None
        self._faults = faults_from_env()
        self.obs = inst.telemetry if inst.telemetry is not None else Telemetry()
        self.checkpoint_path = checkpoint_path
        self.profiler = (
            inst.profiler if inst.profiler is not None else profile_from_env()
        )
        self.health = _resolve(inst.health, HealthConfig, HealthConfig.from_env,
                               lambda c: HealthMonitor(self.obs, c))
        self.convergence = _resolve(inst.convergence, ConvergenceConfig,
                                    ConvergenceConfig.from_env,
                                    ConvergenceLedger)
        # Serving (REPRO_OBS_PORT) implies a recorder: a live /metrics
        # endpoint with nothing behind it would only report an idle board.
        serving = bool(os.environ.get(OBS_PORT_ENV_VAR, "").strip())
        self.timeseries = _resolve(
            inst.timeseries, TimeSeriesConfig,
            lambda: TimeSeriesConfig.from_env()
            or (TimeSeriesConfig() if serving else None),
            TimeSeriesRecorder,
        )
        self.supervisor = _resolve(resilience, ResilienceConfig,
                                   ResilienceConfig.from_env,
                                   lambda c: CampaignSupervisor(c, self.obs))
        if self.timeseries is not None:
            from repro.obs.server import get_board, server_from_env

            server_from_env()  # starts the singleton iff REPRO_OBS_PORT set
            get_board().publish_recorder(self.timeseries)
            trace = os.environ.get(TRACE_ENV_VAR, "").strip()
            if trace and trace not in ("stderr", "-"):
                get_board().publish_trace(trace)
        self.windows = make_windows(grid, self.cfg.n_windows, self.cfg.overlap)
        self._rngs = RngFactory(self.cfg.seed)
        self._exchange_rng = self._rngs.make("rewl-exchange")

        initial_config = hamiltonian.validate_config(np.asarray(initial_config))
        wl_cfg = WLConfig(
            ln_f_init=self.cfg.ln_f_init, ln_f_final=self.cfg.ln_f_final,
            flatness=self.cfg.flatness, check_interval=self.cfg.check_interval,
            batch_size=self.cfg.walkers_per_window,
        )
        # driver.walkers[w] is a one-element list holding window w's team.
        self.walkers: list[list[BatchedWangLandauSampler]] = []
        for w, spec in enumerate(self.windows):
            starts = np.tile(initial_config, (self.cfg.walkers_per_window, 1))
            for k, row in enumerate(starts):
                self._rngs.make("rewl-walker", w * 10_000 + k).shuffle(row)
            rows = drive_into_range(
                hamiltonian, proposal_factory(), spec.grid, starts,
                rng=self._rngs.make("rewl-drive", w),
                max_steps=self.cfg.drive_max_steps,
            )
            team = BatchedWangLandauSampler(
                hamiltonian=hamiltonian, proposal=proposal_factory(),
                grid=spec.grid, initial_config=rows,
                rng=self._rngs.make("rewl-team", w), config=wl_cfg,
            )
            if self.profiler is not None and self.cfg.backend != "shm":
                # One profiler per team, merged in merged_profile(); shm
                # ranks build their own and return them with each reply.
                team.enable_profiling(
                    SectionProfiler(sample_every=self.profiler.sample_every)
                )
            self.walkers.append([team])
        if self.cfg.backend == "shm":
            from repro.parallel.fused import ShmEngine

            self._engine = ShmEngine(self, n_ranks=self.cfg.shm_ranks)
        for w in range(len(self.walkers)):
            self._retag_window(w)
        self.window_converged = [False] * len(self.windows)
        self.window_quarantined = [False] * len(self.windows)
        # One slot per *adjacent window pair*: zero-length for a single
        # window (no phantom pair with a NaN rate in the result).
        self.exchange_attempts = np.zeros(len(self.windows) - 1, dtype=np.int64)
        self.exchange_accepts = np.zeros_like(self.exchange_attempts)
        self.task_retries = 0  # campaign total, carried by checkpoints
        self.rounds = 0
        self._sample: RoundSample | None = None
        if self.convergence is not None:
            self.convergence.attach(self)
        if self.supervisor is not None:
            self.supervisor.bind(self)

    # ------------------------------------------------------------- helpers

    def _retag_window(self, w: int) -> None:
        """(Re-)stamp window ``w``'s team after it was replaced (a rollback
        restores a pickled snapshot, a checkpoint load swaps teams in).

        Sets the team's ``obs_tag`` (window identity for worker spans and
        window-targeted faults) and, under ``backend="shm"``, re-adopts it
        into the shared campaign arrays so its rows track the new state —
        row recovery instead of process restarts.
        """
        self.walkers[w][0].obs_tag = (w, None)
        self._sample = None  # the cached round record no longer describes it
        if self._engine is not None:
            self._engine.bind_window(self, w)

    def close(self) -> None:
        """Release backend resources (idempotent).

        Required after a ``backend="shm"`` run: worker ranks are stopped and
        joined, and the shared-memory segments unlinked.  Teams are detached
        back onto private arrays first, so ``result()`` and checkpoints
        taken after ``close()`` stay valid.  A no-op for ``backend="fused"``.
        """
        if self._engine is not None:
            self._engine.close(self)
            self._engine = None

    def _settled(self) -> bool:
        """True when every window is either converged or quarantined."""
        return all(
            c or q
            for c, q in zip(self.window_converged, self.window_quarantined)
        )

    def total_steps(self) -> int:
        """WL steps taken so far across all walkers (budget accounting)."""
        return sum(int(team.slot_steps.sum()) for (team,) in self.walkers)

    def _exchange_pairs(self) -> list[tuple[int, int]]:
        """The round's exchange pair schedule.

        Adjacent neighbors normally; with quarantined windows the surviving
        neighbors are re-paired around the holes (when their specs still
        overlap).  Pair statistics live in ``exchange_attempts[left]`` —
        slot ``left`` means "the pair whose left member is window *left*",
        which coincides with the adjacent pair when nothing is quarantined
        and reuses the dead slot after window ``left + 1`` is removed.
        """
        if not any(self.window_quarantined):
            return [(w, w + 1) for w in range(len(self.windows) - 1)]
        alive = [not q for q in self.window_quarantined]
        return surviving_pairs(self.windows, alive)

    # ------------------------------------------------------------- phases

    def _advance_phase(self) -> None:
        """Advance every live window's team and settle each one.

        In process every team steps in one block and the windows settle in
        window order after it; under ``backend="shm"`` the engine settles
        each window as its rank's reply lands.  The round counter moves
        first, so settling (guard events, quarantine records) sees this
        round's number.
        """
        active = [
            w for w in range(len(self.walkers))
            if not self.window_converged[w] and not self.window_quarantined[w]
        ]
        steps = len(active) * self.cfg.exchange_interval
        prof = self.profiler
        t0 = prof.start_always("rewl.advance") if prof is not None else None
        with self.obs.span("advance", round=self.rounds, walkers=len(active),
                           steps=steps):
            self.rounds += 1
            self.obs.metrics.inc("rewl.rounds")
            self.obs.metrics.inc("rewl.steps", steps)
            if self._engine is not None:
                self._engine.advance(self, active, self._settle_window)
            else:
                failed, retries = advance_windows(
                    {w: self.walkers[w][0] for w in active},
                    self.cfg.exchange_interval, self.hamiltonian, prof,
                    self._faults,
                )
                self._note_retries(retries)
                for w in active:
                    self._settle_window(w, failed.get(w))
            if self.supervisor is not None:
                self.supervisor.end_guard_round()
        if prof is not None:
            prof.stop("rewl.advance", t0)

    def _settle_window(self, w: int, exc: Exception | None) -> None:
        """Window ``w``'s advance has landed: a failed window (``exc``: its
        retries ran out, or its rank died) goes to :meth:`_window_failed`;
        otherwise the supervisor, if any, guards and snapshots it.

        Guards run before the exchange phase, so corrupted ln g never feeds
        an acceptance decision of a healthy neighbor, and the round's pair
        schedule already re-pairs around any window quarantined here.
        """
        if exc is not None:
            self._window_failed(w, exc)
            return
        sup = self.supervisor
        if sup is None:
            return
        prof = self.profiler
        t0 = prof.start_always("rewl.guard") if prof is not None else None
        sup.guard_window(self, w)
        sup.snapshot_window(self, w)
        if prof is not None:
            prof.stop("rewl.guard", t0)

    def _note_retries(self, retries) -> None:
        """Count :func:`advance_windows`' retry records (both backends)."""
        metrics = self.obs.metrics
        for window, attempt, error, injected in retries:
            self.task_retries += 1
            metrics.inc("task.retries")
            if injected:
                metrics.inc("fault.injected")
            if self.obs.enabled:
                self.obs.emit("task_retry", window=window, attempt=attempt,
                              reason="error", error=error)

    def _window_failed(self, w: int, exc: Exception) -> None:
        """Window ``w`` used up its retries: the supervisor decides, or the
        campaign stops."""
        if self.supervisor is None:
            raise exc
        self.supervisor.on_window_failure(self, w, exc)

    def _exchange_phase(self) -> None:
        """Replica exchange between *slots* of adjacent window teams."""
        prof = self.profiler
        t0 = prof.start_always("rewl.exchange_round") if prof is not None else None
        with self.obs.span("exchange", round=self.rounds):
            # pairs[start::2] over adjacent pairs gives the classic odd/even
            # alternation; with quarantined windows the schedule is the
            # surviving re-paired topology instead.
            start = self.rounds % 2
            for left, right in self._exchange_pairs()[start::2]:
                self._exchange_pair(left, right)
        if prof is not None:
            prof.stop("rewl.exchange_round", t0)

    def _exchange_pair(self, left: int, right: int) -> None:
        """One exchange attempt between windows ``left``/``right``: one slot
        pick per side, one uniform for acceptance.

        A converged endpoint makes the attempt a silent no-op that draws
        nothing (quarantined windows are not in the schedule).
        """
        if self.window_converged[left] or self.window_converged[right]:
            return
        team_a = self.walkers[left][0]
        team_b = self.walkers[right][0]
        ka = int(self._exchange_rng.integers(team_a.n_slots))
        kb = int(self._exchange_rng.integers(team_b.n_slots))
        self.exchange_attempts[left] += 1
        team_a.counters.exchange_attempts += 1
        team_b.counters.exchange_attempts += 1
        self.obs.metrics.inc("rewl.exchange.attempts")
        accepted = False
        in_overlap = True
        bin_a_in_b = team_b.grid.index(team_a.slot_energy(ka))
        bin_b_in_a = team_a.grid.index(team_b.slot_energy(kb))
        if bin_a_in_b < 0 or bin_b_in_a < 0:
            in_overlap = False  # not both in the overlap
        else:
            log_alpha = (
                team_a.ln_g[team_a.slot_bin(ka)]
                - team_a.ln_g[bin_b_in_a]
                + team_b.ln_g[team_b.slot_bin(kb)]
                - team_b.ln_g[bin_a_in_b]
            )
            if log_alpha >= 0.0 or np.log(self._exchange_rng.random()) < log_alpha:
                cfg_a = team_a.slot_config(ka).copy()
                e_a = team_a.slot_energy(ka)
                team_a.set_slot(
                    ka, team_b.slot_config(kb), team_b.slot_energy(kb),
                    bin_b_in_a,
                )
                team_b.set_slot(kb, cfg_a, e_a, bin_a_in_b)
                self.exchange_accepts[left] += 1
                team_a.counters.exchange_accepts += 1
                team_b.counters.exchange_accepts += 1
                self.obs.metrics.inc("rewl.exchange.accepts")
                accepted = True
        if self.convergence is not None:
            self.convergence.note_exchange(
                left, ka, right, kb, accepted, in_overlap
            )
        if self.obs.enabled:
            self.obs.emit("exchange_attempt", round=self.rounds, pair=left,
                          accepted=accepted, in_overlap=in_overlap)

    def _sync_phase(self) -> None:
        prof = self.profiler
        t0 = prof.start_always("rewl.sync") if prof is not None else None
        with self.obs.span("synchronize", round=self.rounds):
            for w in range(len(self.walkers)):
                self._sync_window(w)
        if prof is not None:
            prof.stop("rewl.sync", t0)

    def _sync_window(self, w: int) -> None:
        """Merge/advance window ``w`` if its whole team is flat."""
        if self.window_converged[w] or self.window_quarantined[w]:
            return
        team = self.walkers[w][0]
        if not team.is_flat():
            return
        team.ln_g[...] = self._merge_window(team)[0]
        team.advance_modification_factor()
        if team.ln_f <= self.cfg.ln_f_final:
            self.window_converged[w] = True
        if self.convergence is not None:
            self.convergence.note_sync(
                w, self.rounds, team.ln_f, team.n_iterations,
                self.window_converged[w],
            )
        self.obs.metrics.inc("rewl.syncs")
        if self.obs.enabled:
            self.obs.emit(
                "sync", round=self.rounds, window=w,
                ln_f=team.ln_f, iteration=team.n_iterations,
                converged=self.window_converged[w],
            )

    @staticmethod
    def _merge_window(team) -> tuple[np.ndarray, np.ndarray]:
        """A team's ln g shifted to a zero minimum over its visited bins
        (0 elsewhere), and a copy of its visited mask.

        Pure function of the team state (callers decide whether to write it
        back — ``result()`` must *not* mutate walkers, or checkpoints taken
        after a run would diverge from uninterrupted runs).
        """
        visited = team.visited.copy()
        if not visited.any():
            return np.zeros(visited.shape[0]), visited
        ln_g = team.ln_g
        return np.where(visited, ln_g - ln_g[visited].min(), 0.0), visited

    def round_sample(self) -> RoundSample:
        """This round's :class:`~repro.obs.sample.RoundSample`, built by
        the first call in a round and shared with every later one.

        Observers ask on the rounds their strides select (and ``run()`` on
        its last round), so records are built on the union of those rounds.
        """
        if self._sample is None or self._sample.round != self.rounds:
            self._sample = self._build_round_sample()
        return self._sample

    def _build_round_sample(self) -> RoundSample:
        windows = []
        for w, (team,) in enumerate(self.walkers):
            ln_g, visited = self._merge_window(team)
            ln_g.flags.writeable = False
            visited.flags.writeable = False
            windows.append(WindowSample(
                window=w, ln_f=float(team.ln_f),
                iteration=int(team.n_iterations),
                flatness=team.flatness_fraction(),
                fill=team.fill_fraction(),
                converged=bool(self.window_converged[w]),
                quarantined=bool(self.window_quarantined[w]),
                ln_g=ln_g, visited=visited,
            ))
        sup = self.supervisor
        sample = RoundSample(
            round=self.rounds, mono=time.monotonic(), wall=time.time(),
            steps=self.total_steps(), windows=tuple(windows),
            exchange_attempts=tuple(self.exchange_attempts.tolist()),
            exchange_accepts=tuple(self.exchange_accepts.tolist()),
            retries=self.task_retries,
            budget=None if sup is None else dict(sup.budget_status),
            dispositions=() if sup is None else tuple(sup.dispositions()),
            degraded=(
                any(self.window_quarantined) if sup is None else sup.degraded
            ),
        )
        if self.convergence is None:
            return sample
        return replace(sample, eta=self.convergence.eta(sample))

    def _maybe_checkpoint(self) -> None:
        """Periodic crash-consistent snapshot (``cfg.checkpoint_interval``)."""
        if (
            self.checkpoint_path is None
            or not self.cfg.checkpoint_interval
            or self.rounds % self.cfg.checkpoint_interval != 0
        ):
            return
        from repro.parallel.checkpoint import save_checkpoint

        prof = self.profiler
        t0 = prof.start_always("rewl.checkpoint") if prof is not None else None
        save_checkpoint(self, self.checkpoint_path)
        if prof is not None:
            prof.stop("rewl.checkpoint", t0)

    # ----------------------------------------------------------------- run

    def run(self, max_rounds: int | None = None) -> REWLResult:
        """Iterate rounds until every window converges or is quarantined.

        One round, on either backend: advance (each window settled as it
        lands), exchange, sync, the round observers, the checkpoint.
        """
        limit = self.cfg.max_rounds if max_rounds is None else max_rounds
        self.obs.emit(
            "run_start", scope="rewl", n_windows=len(self.windows),
            walkers_per_window=self.cfg.walkers_per_window,
            exchange_interval=self.cfg.exchange_interval,
            ln_f_final=self.cfg.ln_f_final, seed=self.cfg.seed,
            n_bins=self.grid.n_bins, max_rounds=limit,
        )
        if self.obs.enabled:
            self.obs.emit("engine.native", **native.status())
        if self.supervisor is not None:
            # Round-0 baseline snapshots: a failure in the very first round
            # still has a guard-clean state to roll back to.
            self.supervisor.snapshot(self)
        with self.obs.span("rewl"):
            while not self._settled() and self.rounds < limit:
                if self.supervisor is not None and self.supervisor.budget_exceeded(self):
                    # Clean terminate-and-harvest: break out and report
                    # whatever converged, instead of dying to the job
                    # scheduler's SIGKILL with nothing.  The budget (and
                    # with it ``degraded``) changed after this round's record
                    # was built, so the end-of-run views need a fresh one.
                    self._sample = None
                    break
                self._advance_phase()
                self._exchange_phase()
                self._sync_phase()
                for observer in (self.convergence, self.health,
                                 self.timeseries):
                    if observer is not None:
                        observer.observe_round(self)
                self._maybe_checkpoint()
        if self.profiler is not None:
            merged = self.merged_profile()
            merged.publish(self.obs.metrics)
            cost = attribute_cost(merged.as_dict())
            publish_cost(cost, self.obs.metrics)
            if self.timeseries is not None:
                self.timeseries.note_cost(cost)
            contribute_profile(merged)
            if self.obs.enabled:
                self.obs.emit("profile", sections=merged.as_dict())
                self.obs.emit(COST_KIND, **cost)
        if self.timeseries is not None:
            # The served view reflects the end state (converged flags, final
            # cost gauges) even off-stride; a round already taken adds no
            # series point.
            self.timeseries.observe_round(self, force=True)
        result = self.result()
        if self.obs.enabled:
            for digest in ("convergence", "resilience"):
                if digest in result.telemetry:
                    self.obs.emit(digest, **result.telemetry[digest])
        self.obs.emit(
            "run_end", scope="rewl", rounds=self.rounds,
            converged=result.converged, total_steps=result.total_steps,
            exchange_attempts=int(self.exchange_attempts.sum()),
            exchange_accepts=int(self.exchange_accepts.sum()),
            degraded=result.degraded, quarantined=result.quarantined,
        )
        return result

    def merged_profile(self) -> SectionProfiler:
        """Round-phase sections merged with every team's hot-path profile.

        In process each team carries its own profiler; under
        ``backend="shm"`` the rank-side profile ships back with each round's
        reply (the team's own ``.profiler`` stays None there).  Returns a
        fresh profiler; nothing is mutated.
        """
        merged = SectionProfiler(
            sample_every=self.profiler.sample_every if self.profiler else 1
        )
        if self.profiler is not None:
            merged.merge(self.profiler)
        for (team,) in self.walkers:
            for prof in (team.profiler, getattr(team, "_shm_profiler", None)):
                if prof is not None:
                    merged.merge(prof)
        return merged

    def result(self) -> REWLResult:
        window_ln_g = []
        window_visited = []
        window_iterations = []
        snapshots = []
        for w, (team,) in enumerate(self.walkers):
            # Reporting only — team state is left untouched so a checkpoint
            # taken after result() still resumes bit-identically.
            ln_g, visited = self._merge_window(team)
            window_ln_g.append(ln_g)
            window_visited.append(visited)
            window_iterations.append(team.n_iterations)
            # One snapshot per slot; the team's event counters ride on slot
            # 0 only, so summing snapshots does not double-count.
            for k in range(team.n_slots):
                slot_steps = int(team.slot_steps[k])
                snapshots.append(
                    WalkerSnapshot(
                        window=w,
                        walker=k,
                        n_steps=slot_steps,
                        acceptance_rate=(
                            int(team.slot_accepted[k]) / slot_steps
                            if slot_steps else 0.0
                        ),
                        final_energy=team.slot_energy(k),
                        counters=(
                            replace(team.counters) if k == 0
                            else WalkerCounters()
                        ),
                    )
                )
        telemetry = self.obs.summary()
        if self.profiler is not None:
            telemetry["profile"] = self.merged_profile().as_dict()
            telemetry["cost"] = attribute_cost(telemetry["profile"])
        if self.health is not None:
            telemetry["health"] = self.health.summary()
        if self.convergence is not None:
            telemetry["convergence"] = self.convergence.summary(
                self.round_sample()
            )
        if self.supervisor is not None:
            telemetry["resilience"] = self.supervisor.summary()
        if self.timeseries is not None:
            telemetry["timeseries"] = self.timeseries.summary()
        quarantined = [
            w for w, q in enumerate(self.window_quarantined) if q
        ]
        degraded = (
            self.supervisor.degraded if self.supervisor is not None
            else bool(quarantined)
        )
        return REWLResult(
            global_grid=self.grid,
            windows=self.windows,
            window_ln_g=window_ln_g,
            window_visited=window_visited,
            window_iterations=window_iterations,
            converged=all(self.window_converged),
            rounds=self.rounds,
            total_steps=sum(s.n_steps for s in snapshots),
            exchange_attempts=self.exchange_attempts.copy(),
            exchange_accepts=self.exchange_accepts.copy(),
            walkers=snapshots,
            telemetry=telemetry,
            degraded=degraded,
            quarantined=quarantined,
            window_dispositions=(
                self.supervisor.dispositions()
                if self.supervisor is not None else []
            ),
        )
