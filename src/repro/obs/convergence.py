"""Scientific convergence diagnostics for REWL campaigns.

The operational telemetry (spans, heartbeats, profiles) says how fast the
machine is going; :class:`ConvergenceLedger` records how fast the *science*
is converging — the quantities the flat-histogram parallelization
literature tunes window overlap and walkers-per-window against:

- the per-window **ln f trajectory** (one sample per sync, with the WL
  iteration count and round number),
- the per-window **flatness fraction** (min/mean of the window's shared
  visit histogram over visited bins) and **histogram fill** over time,
- the per-window **ln g drift** between sampled snapshots (mean |Δ ln g|
  over bins visited in both snapshots — a direct stationarity measure),
- a per-adjacent-pair **exchange-acceptance matrix**,
- **replica round-trip and tunneling counters**: walker labels ride
  configurations through accepted exchanges, and a label touching the
  opposite end of the window ladder from the end it last touched counts
  one tunnel (one-way traversal); two traversals make a round trip,
- an **ETA estimate** projecting rounds-to-convergence per window from the
  ln f halving schedule and the observed flatness rate, converted to wall
  seconds via the records' monotonic timestamps.

The stride-sampled series come from the driver's per-round
:class:`~repro.obs.sample.RoundSample`; exchanges and syncs arrive as
events (``note_exchange`` / ``note_sync``).  The ledger writes nothing into
sampler state, so a ledgered run is bit-identical to a bare one (tested in
``tests/test_obs_convergence.py``), and its state rides the REWL checkpoint
(:mod:`repro.parallel.checkpoint`), so ``--resume`` restores it.

Environment wiring: ``REPRO_CONVERGENCE=1`` (or ``"every=20,max=256"``)
attaches a ledger to any REWL entry point without new flags.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from repro.obs.sample import RoundSample
from repro.util.validation import EnvSpec, check_integer

__all__ = [
    "CONVERGENCE_ENV_VAR",
    "ConvergenceConfig",
    "ConvergenceLedger",
]

CONVERGENCE_ENV_VAR = "REPRO_CONVERGENCE"


@dataclass(frozen=True)
class ConvergenceConfig(EnvSpec):
    """Sampling cadence and retention for :class:`ConvergenceLedger`.

    ``sample_every`` is a *round* stride (flatness/fill/drift and wall-clock
    samples land every N-th round); ln f trajectory points are event-driven
    (one per sync) and exchange counters are exact.  ``max_samples`` bounds
    each per-window series: on overflow every other sample is dropped, so
    long campaigns keep a coarse full-history view at fixed memory.
    """

    ENV_VAR: ClassVar[str] = CONVERGENCE_ENV_VAR
    SPEC_KEYS: ClassVar[dict[str, str]] = {
        "every": "sample_every", "sample_every": "sample_every",
        "max": "max_samples", "max_samples": "max_samples",
    }

    sample_every: int = 10
    max_samples: int = 512

    def __post_init__(self):
        check_integer("sample_every", self.sample_every, minimum=1)
        check_integer("max_samples", self.max_samples, minimum=4)


class ConvergenceLedger:
    """Per-window/per-walker scientific diagnostics for one REWL run.

    The driver owns the hookup: :meth:`attach` at construction,
    :meth:`note_exchange` / :meth:`note_sync` from the exchange and sync
    phases, :meth:`observe_round` once per round, and :meth:`eta` when it
    builds a round record.  Everything is plain-Python bookkeeping over
    those inputs, so it pickles through checkpoints (:meth:`state_dict` /
    :meth:`load_state`) and perturbs nothing.
    """

    def __init__(self, config: ConvergenceConfig | None = None):
        self.cfg = config or ConvergenceConfig()
        self.attached = False
        self.n_windows = 0
        self.n_slots = 0
        self.samples = 0
        self.labels: list[list[int]] = []
        self._last_extreme: dict[int, str] = {}
        self._traversals: dict[int, int] = {}
        self.pair_attempts: list[int] = []
        self.pair_accepts: list[int] = []
        self.lnf_trajectory: list[list] = []
        self.flatness_series: list[list] = []
        self.drift_series: list[list] = []
        self._prev_ln_g: list = []
        self.wall_samples: list[tuple[int, float]] = []
        self._ln_f_final = 0.0
        self._flatness = 1.0

    # ------------------------------------------------------------- wiring

    def attach(self, driver) -> None:
        """Size the per-window structures from a driver's final config (``driver.cfg``).

        Walker labels start at their home windows; labels already sitting
        at an end of the ladder seed the traversal tracker so the first
        arrival at the *opposite* end counts as a tunnel.
        """
        cfg = driver.cfg
        self._ln_f_final = float(cfg.ln_f_final)
        self._flatness = float(cfg.flatness)
        if self.attached:
            return
        w_count = cfg.n_windows
        k_count = cfg.walkers_per_window
        self.attached = True
        self.n_windows = w_count
        self.n_slots = k_count
        self.labels = [
            [w * k_count + k for k in range(k_count)] for w in range(w_count)
        ]
        if w_count > 1:
            for label in self.labels[0]:
                self._last_extreme[label] = "bottom"
            for label in self.labels[-1]:
                self._last_extreme[label] = "top"
        self.pair_attempts = [0] * max(0, w_count - 1)
        self.pair_accepts = [0] * max(0, w_count - 1)
        self.lnf_trajectory = [[] for _ in range(w_count)]
        self.flatness_series = [[] for _ in range(w_count)]
        self.drift_series = [[] for _ in range(w_count)]
        self._prev_ln_g = [None] * w_count

    # -------------------------------------------------------------- hooks

    def note_exchange(self, left: int, ia: int, right: int, ib: int,
                      accepted: bool, in_overlap: bool) -> None:
        """Record one replica-exchange attempt between adjacent windows.

        On acceptance the walker labels swap with the configurations, which
        is what makes the ladder-diffusion (tunnel/round-trip) counters
        meaningful.
        """
        if not self.attached:
            return
        self.pair_attempts[left] += 1
        if not accepted:
            return
        self.pair_accepts[left] += 1
        la = self.labels[left][ia]
        lb = self.labels[right][ib]
        self.labels[left][ia] = lb
        self.labels[right][ib] = la
        self._touch(lb, left)
        self._touch(la, right)

    def _touch(self, label: int, window: int) -> None:
        if self.n_windows <= 1:
            return
        if window == 0:
            extreme = "bottom"
        elif window == self.n_windows - 1:
            extreme = "top"
        else:
            return
        last = self._last_extreme.get(label)
        if last is None:
            self._last_extreme[label] = extreme
        elif last != extreme:
            self._last_extreme[label] = extreme
            self._traversals[label] = self._traversals.get(label, 0) + 1

    def note_sync(self, window: int, rounds: int, ln_f: float,
                  iteration: int, converged: bool) -> None:
        """Record one window sync (ln f halving)."""
        if not self.attached:
            return
        series = self.lnf_trajectory[window]
        series.append((rounds, float(ln_f), int(iteration)))
        self._decimate(series)

    def observe_round(self, driver) -> None:
        """Take the driver's round record on the ledger's stride."""
        if self.attached and driver.rounds % self.cfg.sample_every == 0:
            self.consume(driver.round_sample())

    def consume(self, sample: RoundSample) -> None:
        """Per-window flatness, fill and ln g drift from a round record."""
        self.samples += 1
        self.wall_samples.append((sample.round, sample.mono))
        self._decimate(self.wall_samples)
        for win in sample.windows:
            w = win.window
            series = self.flatness_series[w]
            series.append((sample.round, round(win.flatness, 6),
                           round(win.fill, 6)))
            self._decimate(series)
            prev = self._prev_ln_g[w]
            if prev is not None:
                both = win.visited & prev[1]
                drift = (
                    float(np.abs(win.ln_g - prev[0])[both].mean())
                    if both.any() else 0.0
                )
                dseries = self.drift_series[w]
                dseries.append((sample.round, drift))
                self._decimate(dseries)
            self._prev_ln_g[w] = (win.ln_g, win.visited)

    def _decimate(self, series: list) -> None:
        if len(series) > self.cfg.max_samples:
            # Drop every other old sample, keeping the newest; deterministic
            # (count-based), so resumed runs decimate identically.
            del series[-2::-2]

    # ---------------------------------------------------------- estimates

    @property
    def tunnels(self) -> int:
        """One-way end-to-end label traversals of the window ladder."""
        return sum(self._traversals.values())

    @property
    def round_trips(self) -> int:
        """Completed bottom→top→bottom (or inverse) label cycles."""
        return sum(v // 2 for v in self._traversals.values())

    def seconds_per_round(self, sample: RoundSample) -> float | None:
        """Mean wall seconds per round from the first retained sample to
        ``sample``, or None without an earlier sample."""
        if not self.wall_samples:
            return None
        r0, t0 = self.wall_samples[0]
        if sample.round <= r0:
            return None
        return (sample.mono - t0) / (sample.round - r0)

    def eta(self, sample: RoundSample) -> dict | None:
        """Projected rounds/seconds until every window converges.

        Per unconverged window: remaining ln f halvings from the schedule,
        times the observed rounds-per-iteration (ln f trajectory), with the
        current iteration's remainder projected from the flatness slope
        between the newest earlier sample and ``sample``.  Campaign ETA is
        the slowest window.  Returns None while there is not enough history
        to project anything.  Pure: the same record gives the same ETA
        whether or not the ledger has taken it yet.
        """
        if all(w.converged for w in sample.windows):
            return {"rounds": 0, "seconds": 0.0, "windows": []}
        per_window = []
        for win in sample.windows:
            ln_f = float(win.ln_f)
            if win.converged or ln_f <= self._ln_f_final:
                continue
            halvings = max(1, math.ceil(math.log2(ln_f / self._ln_f_final)))
            rounds_per_iter = self._rounds_per_iteration(win.window)
            rounds_to_flat = self._rounds_to_flat(win, sample.round)
            if rounds_per_iter is None and rounds_to_flat is None:
                continue
            rpi = rounds_per_iter if rounds_per_iter is not None else rounds_to_flat
            rtf = rounds_to_flat if rounds_to_flat is not None else rpi
            eta_rounds = rtf + (halvings - 1) * rpi
            per_window.append({
                "window": win.window,
                "ln_f": ln_f,
                "halvings_left": halvings,
                "eta_rounds": round(float(eta_rounds), 1),
            })
        if not per_window:
            return None
        sec = self.seconds_per_round(sample)
        eta_rounds = max(e["eta_rounds"] for e in per_window)
        if sec is not None:
            for entry in per_window:
                entry["eta_s"] = round(entry["eta_rounds"] * sec, 3)
        return {
            "rounds": eta_rounds,
            "seconds": None if sec is None else round(eta_rounds * sec, 3),
            "windows": per_window,
        }

    def _rounds_per_iteration(self, window: int) -> float | None:
        traj = self.lnf_trajectory[window]
        if len(traj) < 2:
            return None
        d_rounds = traj[-1][0] - traj[0][0]
        d_iters = traj[-1][2] - traj[0][2]
        if d_iters <= 0 or d_rounds <= 0:
            return None
        return d_rounds / d_iters

    def _rounds_to_flat(self, win, rounds: int) -> float | None:
        series = self.flatness_series[win.window]
        earlier = next((p for p in reversed(series) if p[0] < rounds), None)
        if earlier is None:
            return None
        r0, f0, _ = earlier
        f1 = round(win.flatness, 6)
        rate = (f1 - f0) / (rounds - r0)
        if rate <= 0:
            return None
        return max(0.0, (self._flatness - f1) / rate)

    # ------------------------------------------------------------- digest

    def acceptance_matrix(self) -> list[list[float | None]]:
        """(n_windows × n_windows) acceptance rates; None off the ladder."""
        n = self.n_windows
        matrix: list[list[float | None]] = [[None] * n for _ in range(n)]
        for pair in range(len(self.pair_attempts)):
            att = self.pair_attempts[pair]
            rate = self.pair_accepts[pair] / att if att else 0.0
            matrix[pair][pair + 1] = round(rate, 4)
            matrix[pair + 1][pair] = round(rate, 4)
        return matrix

    def summary(self, sample: RoundSample | None = None) -> dict:
        """JSON-ready digest for ``REWLResult.telemetry["convergence"]``,
        with ``sample``'s ETA when a round record is given."""
        windows = []
        for w in range(self.n_windows):
            traj = self.lnf_trajectory[w]
            flat = self.flatness_series[w]
            drift = self.drift_series[w]
            windows.append({
                "window": w,
                "syncs": len(traj),
                "ln_f": [t[1] for t in traj],
                "flatness": [f[1] for f in flat],
                "fill": flat[-1][2] if flat else 0.0,
                "ln_g_drift": drift[-1][1] if drift else None,
            })
        out = {
            "n_windows": self.n_windows,
            "walkers_per_window": self.n_slots,
            "samples": self.samples,
            "tunnels": self.tunnels,
            "round_trips": self.round_trips,
            "pair_attempts": list(self.pair_attempts),
            "pair_accepts": list(self.pair_accepts),
            "acceptance_matrix": self.acceptance_matrix(),
            "windows": windows,
        }
        if sample is not None:
            out["eta"] = sample.eta
        return out

    # --------------------------------------------------------- checkpoint

    #: Checkpointed attributes; the payload key drops the leading underscore.
    _STATE = ("attached", "n_windows", "n_slots", "samples", "labels",
              "_last_extreme", "_traversals", "pair_attempts", "pair_accepts",
              "lnf_trajectory", "flatness_series", "drift_series",
              "_prev_ln_g")

    def state_dict(self) -> dict:
        """Everything that evolves, for the REWL checkpoint payload."""
        state = {name.lstrip("_"): getattr(self, name) for name in self._STATE}
        state["cfg"] = asdict(self.cfg)
        return copy.deepcopy(state)

    def load_state(self, state: dict) -> None:
        """Restore from :meth:`state_dict` (checkpoint resume).

        Wall-clock samples are deliberately *not* restored — the resumed
        process has a fresh ``time.monotonic`` epoch, so stale samples would
        poison the seconds-per-round estimate.
        """
        self.cfg = ConvergenceConfig(**state["cfg"])
        for name in self._STATE:
            setattr(self, name, copy.deepcopy(state[name.lstrip("_")]))
        self.wall_samples = []
