"""Scientific convergence diagnostics for REWL campaigns.

The operational telemetry (spans, heartbeats, profiles) says how fast the
machine is going; :class:`ConvergenceLedger` records how fast the *science*
is converging — the quantities the flat-histogram parallelization
literature tunes window overlap and walkers-per-window against:

- the per-window **ln f trajectory** (one sample per sync, with the WL
  iteration count and round number),
- the per-window **flatness fraction** (min/mean of the visit histogram
  over visited bins, worst walker) and **histogram fill** over time,
- the per-window **ln g drift** between sampled snapshots (mean |Δ ln g|
  over bins visited in both snapshots — a direct stationarity measure),
- a per-adjacent-pair **exchange-acceptance matrix**,
- **replica round-trip and tunneling counters**: walker labels ride
  configurations through accepted exchanges, and a label touching the
  opposite end of the window ladder from the end it last touched counts
  one tunnel (one-way traversal); two traversals make a round trip,
- an **ETA estimate** projecting rounds-to-convergence per window from the
  ln f halving schedule and the observed flatness rate, converted to wall
  seconds via sampled round timestamps.

Determinism contract (same as :class:`repro.obs.profile.SectionProfiler`):
the ledger samples on a plain round-counter stride, draws no random
numbers, and writes nothing into sampler state — a run with the ledger
enabled is bit-identical to a bare run (tested in
``tests/test_obs_convergence.py``).  Snapshots ride the REWL checkpoint
framing (:mod:`repro.parallel.checkpoint`), so ``--resume`` restores the
diagnostics losslessly.

Environment wiring: ``REPRO_CONVERGENCE=1`` (or ``"every=20,max=256"``)
attaches a ledger to any REWL entry point without new flags.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.obs.health import team_flatness_ratio
from repro.util.validation import check_integer

__all__ = [
    "CONVERGENCE_ENV_VAR",
    "ConvergenceConfig",
    "ConvergenceLedger",
    "convergence_from_env",
    "parse_convergence",
]

CONVERGENCE_ENV_VAR = "REPRO_CONVERGENCE"


@dataclass(frozen=True)
class ConvergenceConfig:
    """Sampling cadence and retention for :class:`ConvergenceLedger`.

    ``sample_every`` is a *round* stride (flatness/fill/drift and wall-clock
    samples land every N-th round); ln f trajectory points are event-driven
    (one per sync) and exchange counters are exact.  ``max_samples`` bounds
    each per-window series: on overflow every other sample is dropped, so
    long campaigns keep a coarse full-history view at fixed memory.
    """

    sample_every: int = 10
    max_samples: int = 512

    def __post_init__(self):
        check_integer("sample_every", self.sample_every, minimum=1)
        check_integer("max_samples", self.max_samples, minimum=4)


def _team_fill(team) -> float:
    """Fraction of the window's bins visited so far (``team`` is a
    ``driver.walkers[w]`` entry)."""
    visited = team[0].visited
    n = visited.shape[0]
    return float(np.count_nonzero(visited)) / n if n else 0.0


class ConvergenceLedger:
    """Per-window/per-walker scientific diagnostics for one REWL run.

    The driver owns the hookup: :meth:`attach` at construction,
    :meth:`note_exchange` / :meth:`note_sync` from the exchange and sync
    phases, :meth:`observe_round` once per round.  Everything is a pure
    read of sampler state plus plain-Python bookkeeping, so it pickles
    through checkpoints (:meth:`state_dict` / :meth:`load_state`) and
    perturbs nothing.
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

    # ------------------------------------------------------------- wiring

    def attach(self, driver) -> None:
        """Size the per-window structures against a constructed driver.

        Walker labels start at their home windows; labels already sitting
        at an end of the ladder seed the traversal tracker so the first
        arrival at the *opposite* end counts as a tunnel.
        """
        if self.attached:
            return
        w_count = len(driver.walkers)
        k_count = driver.walkers[0][0].n_slots if w_count else 0
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
        """Stride-sampled per-window snapshot (flatness, fill, ln g drift)."""
        if not self.attached or driver.rounds % self.cfg.sample_every != 0:
            return
        self.samples += 1
        self.wall_samples.append((driver.rounds, time.perf_counter()))
        self._decimate(self.wall_samples)
        for w, team in enumerate(driver.walkers):
            ratio = team_flatness_ratio(team)
            fill = _team_fill(team)
            series = self.flatness_series[w]
            series.append((driver.rounds, round(ratio, 6), round(fill, 6)))
            self._decimate(series)
            merged, union = driver._merge_window(team[0])
            prev = self._prev_ln_g[w]
            if prev is not None:
                both = union & prev[1]
                drift = (
                    float(np.abs(merged - prev[0])[both].mean())
                    if both.any() else 0.0
                )
                dseries = self.drift_series[w]
                dseries.append((driver.rounds, drift))
                self._decimate(dseries)
            self._prev_ln_g[w] = (merged, union)

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

    def seconds_per_round(self) -> float | None:
        """Observed mean wall seconds per round, or None before 2 samples."""
        if len(self.wall_samples) < 2:
            return None
        (r0, t0), (r1, t1) = self.wall_samples[0], self.wall_samples[-1]
        if r1 <= r0:
            return None
        return (t1 - t0) / (r1 - r0)

    def eta(self, driver) -> dict | None:
        """Projected rounds/seconds until every window converges.

        Per unconverged window: remaining ln f halvings from the schedule,
        times the observed rounds-per-iteration (ln f trajectory), with the
        current iteration's remainder projected from the flatness slope.
        Campaign ETA is the slowest window.  Returns None while there is
        not enough history to project anything.
        """
        per_window = []
        for w, team in enumerate(driver.walkers):
            if driver.window_converged[w]:
                continue
            ln_f = float(team[0].ln_f)
            final = float(driver.cfg.ln_f_final)
            if ln_f <= final:
                continue
            halvings = max(1, math.ceil(math.log2(ln_f / final)))
            rounds_per_iter = self._rounds_per_iteration(w)
            rounds_to_flat = self._rounds_to_flat(w, driver)
            if rounds_per_iter is None and rounds_to_flat is None:
                continue
            rpi = rounds_per_iter if rounds_per_iter is not None else rounds_to_flat
            rtf = rounds_to_flat if rounds_to_flat is not None else rpi
            eta_rounds = rtf + (halvings - 1) * rpi
            per_window.append({
                "window": w,
                "ln_f": ln_f,
                "halvings_left": halvings,
                "eta_rounds": round(float(eta_rounds), 1),
            })
        if all(driver.window_converged):
            return {"rounds": 0, "seconds": 0.0, "windows": []}
        if not per_window:
            return None
        sec = self.seconds_per_round()
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

    def _rounds_to_flat(self, window: int, driver) -> float | None:
        series = self.flatness_series[window]
        if len(series) < 2:
            return None
        (r0, f0, _), (r1, f1, _) = series[-2], series[-1]
        if r1 <= r0:
            return None
        rate = (f1 - f0) / (r1 - r0)
        if rate <= 0:
            return None
        threshold = float(driver.cfg.flatness)
        return max(0.0, (threshold - f1) / rate)

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

    def summary(self, driver=None) -> dict:
        """JSON-ready digest for ``REWLResult.telemetry["convergence"]``."""
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
        if driver is not None:
            out["eta"] = self.eta(driver)
        return out

    # --------------------------------------------------------- checkpoint

    def state_dict(self) -> dict:
        """Everything that evolves, for the REWL checkpoint payload."""
        return {
            "cfg": {"sample_every": self.cfg.sample_every,
                    "max_samples": self.cfg.max_samples},
            "attached": self.attached,
            "n_windows": self.n_windows,
            "n_slots": self.n_slots,
            "samples": self.samples,
            "labels": [list(row) for row in self.labels],
            "last_extreme": dict(self._last_extreme),
            "traversals": dict(self._traversals),
            "pair_attempts": list(self.pair_attempts),
            "pair_accepts": list(self.pair_accepts),
            "lnf_trajectory": [list(s) for s in self.lnf_trajectory],
            "flatness_series": [list(s) for s in self.flatness_series],
            "drift_series": [list(s) for s in self.drift_series],
            "prev_ln_g": [
                None if p is None else (p[0].copy(), p[1].copy())
                for p in self._prev_ln_g
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore from :meth:`state_dict` (checkpoint resume).

        Wall-clock samples are deliberately *not* restored — the resumed
        process has a fresh ``perf_counter`` epoch, so stale samples would
        poison the seconds-per-round estimate.
        """
        self.cfg = ConvergenceConfig(**state["cfg"])
        self.attached = bool(state["attached"])
        self.n_windows = int(state["n_windows"])
        self.n_slots = int(state["n_slots"])
        self.samples = int(state["samples"])
        self.labels = [list(row) for row in state["labels"]]
        self._last_extreme = dict(state["last_extreme"])
        self._traversals = dict(state["traversals"])
        self.pair_attempts = list(state["pair_attempts"])
        self.pair_accepts = list(state["pair_accepts"])
        self.lnf_trajectory = [
            [tuple(t) for t in s] for s in state["lnf_trajectory"]
        ]
        self.flatness_series = [
            [tuple(t) for t in s] for s in state["flatness_series"]
        ]
        self.drift_series = [
            [tuple(t) for t in s] for s in state["drift_series"]
        ]
        self._prev_ln_g = [
            None if p is None else (np.asarray(p[0]), np.asarray(p[1]))
            for p in state["prev_ln_g"]
        ]
        self.wall_samples = []


# ------------------------------------------------------------- env activation

_CONV_KEYS = {
    "every": "sample_every",
    "sample_every": "sample_every",
    "max": "max_samples",
    "max_samples": "max_samples",
}


def parse_convergence(spec: str) -> ConvergenceConfig:
    """Parse a ``REPRO_CONVERGENCE`` value: ``"1"`` or ``"every=20,max=256"``."""
    value = spec.strip().lower()
    if value in ("1", "on", "true"):
        return ConvergenceConfig()
    kwargs = {}
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        field = _CONV_KEYS.get(key.strip())
        if not sep or field is None:
            known = ", ".join(sorted(set(_CONV_KEYS)))
            raise ValueError(
                f"bad {CONVERGENCE_ENV_VAR} entry {part!r}; expected 1/on or "
                f"key=value with key in {{{known}}}"
            )
        try:
            kwargs[field] = int(raw)
        except ValueError as exc:
            raise ValueError(
                f"bad {CONVERGENCE_ENV_VAR} value for {key!r}: {raw!r}"
            ) from exc
    return ConvergenceConfig(**kwargs)


def convergence_from_env(env_var: str = CONVERGENCE_ENV_VAR) -> ConvergenceConfig | None:
    """A :class:`ConvergenceConfig` from the environment, or None when off."""
    value = os.environ.get(env_var, "").strip()
    if value.lower() in ("", "0", "off", "false"):
        return None
    return parse_convergence(value)
