"""Live run-health monitoring for long REWL campaigns.

A multi-day flat-histogram campaign can fail *quietly*: a window stops
making histogram progress, exchange acceptance between two windows
collapses to zero (the replica ladder is severed), or the advance loop
burns its retry budget on a flaky node.  :class:`HealthMonitor` watches a running
:class:`repro.parallel.rewl.REWLDriver` from inside the round loop and
surfaces those conditions as structured telemetry:

- **heartbeat** events every ``heartbeat_rounds`` rounds carrying, per
  window, the flatness ratio (min/mean of the visit histogram over visited
  bins, minimum across the walker team), ``ln f``, and the WL iteration
  count; per adjacent window pair, the exchange attempts/accepts/rate since
  the previous heartbeat; the task-retry delta from the metrics registry;
  and the heartbeat interval + walker throughput measured on
  ``time.monotonic()`` — internal timing deliberately never reads the wall
  clock, so stall/rate math survives NTP steps and DST jumps on multi-day
  campaigns (the envelope ``ts`` stays wall time for log correlation),
- **health_alert** events from three detectors:
  ``stall`` (no window advanced an iteration, improved its flatness ratio,
  or converged for ``stall_heartbeats`` consecutive heartbeats),
  ``exchange_collapse`` (a pair's per-heartbeat acceptance stayed below
  ``min_exchange_rate`` over ``stall_heartbeats`` heartbeats with enough
  attempts to judge), and ``retry_burst`` (``retry_alert`` or more task
  retries — injected crashes and hangs, in process or on shm ranks —
  inside one heartbeat window).

Everything here *reads* sampler state and writes only telemetry: no random
numbers, no float accumulation into walkers — a monitored run is
bit-identical to a bare one (tested in ``tests/test_obs_health.py``).
:mod:`repro.obs.report` folds the resulting events into its digest, and
``python -m repro obs dash / tail`` render them live from a JSONL trace.

Environment wiring: ``REPRO_HEALTH=1`` (or
``"rounds=20,stall=3,min_rate=0.02,min_attempts=4,retries=1"``) attaches a
monitor to any REWL entry point without new flags.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_integer, check_probability

__all__ = [
    "HEALTH_ENV_VAR",
    "HealthConfig",
    "HealthMonitor",
    "health_from_env",
    "parse_health",
    "team_flatness_ratio",
]

HEALTH_ENV_VAR = "REPRO_HEALTH"

#: Heartbeat/alert event kinds (consumed by report/dash/tail).
HEARTBEAT_KIND = "heartbeat"
ALERT_KIND = "health_alert"


@dataclass(frozen=True)
class HealthConfig:
    """Cadence and thresholds for :class:`HealthMonitor`."""

    heartbeat_rounds: int = 10
    stall_heartbeats: int = 3
    min_exchange_rate: float = 0.01
    min_exchange_attempts: int = 4
    retry_alert: int = 1
    flatness_epsilon: float = 1e-3  # ratio improvement that counts as progress

    def __post_init__(self):
        check_integer("heartbeat_rounds", self.heartbeat_rounds, minimum=1)
        check_integer("stall_heartbeats", self.stall_heartbeats, minimum=1)
        check_probability("min_exchange_rate", self.min_exchange_rate)
        check_integer("min_exchange_attempts", self.min_exchange_attempts, minimum=1)
        check_integer("retry_alert", self.retry_alert, minimum=1)
        if self.flatness_epsilon < 0:
            raise ValueError(
                f"flatness_epsilon must be >= 0, got {self.flatness_epsilon!r}"
            )


def team_flatness_ratio(team) -> float:
    """min/mean of the visit histogram over visited bins, worst walker.

    0.0 when no walker has visited a bin yet; 1.0 is a perfectly flat
    histogram.  Pure read — never touches walker state.

    ``team`` is a list of walker-shaped objects (anything carrying
    ``histogram``/``visited``), a lone such object (e.g. a
    :class:`~repro.sampling.batched.BatchedWangLandauSampler` window team,
    whose K slots share one histogram), or a mix where a walker carries a
    2-D ``(K, n_bins)`` per-slot histogram — the worst slot counts.
    """
    if hasattr(team, "histogram"):
        team = [team]
    worst = None
    for walker in team:
        hist = np.asarray(walker.histogram)
        mask = np.asarray(walker.visited)
        rows = hist[None, :] if hist.ndim == 1 else hist
        row_masks = mask[None, :] if mask.ndim == 1 else mask
        for row, row_mask in zip(rows, row_masks):
            if not np.any(row_mask):
                return 0.0
            h = row[row_mask]
            mean = float(h.mean())
            ratio = float(h.min()) / mean if mean > 0 else 0.0
            worst = ratio if worst is None else min(worst, ratio)
    return worst if worst is not None else 0.0


class HealthMonitor:
    """Round-loop observer for a :class:`repro.parallel.rewl.REWLDriver`.

    The driver calls :meth:`observe_round` after every sync phase; all work
    happens on heartbeat rounds, so the per-round cost is one modulo.
    Alerts are also kept on :attr:`alerts` for programmatic access (they
    land in ``REWLResult.telemetry["health"]``).
    """

    def __init__(self, telemetry, config: HealthConfig | None = None):
        self.obs = telemetry
        self.cfg = config or HealthConfig()
        self.heartbeats = 0
        self.alerts: list[dict] = []
        self._stall_streak = 0
        self._collapse_streaks: dict[int, int] = {}
        self._last_iterations: list[int] | None = None
        self._last_flatness: list[float] | None = None
        self._last_converged = 0
        self._last_attempts: np.ndarray | None = None
        self._last_accepts: np.ndarray | None = None
        self._last_retries = 0
        # Monotonic clock only: interval/throughput math must survive
        # wall-clock jumps (NTP, DST) on long campaigns.
        self._last_mono: float | None = None
        self._last_steps = 0

    # -------------------------------------------------------------- observe

    def observe_round(self, driver) -> None:
        if driver.rounds % self.cfg.heartbeat_rounds != 0:
            return
        self.heartbeats += 1
        windows = []
        iterations = []
        flatness = []
        quarantined = list(getattr(
            driver, "window_quarantined", [False] * len(driver.walkers)
        ))
        for w, team in enumerate(driver.walkers):
            ratio = team_flatness_ratio(team)
            iterations.append(team[0].n_iterations)
            flatness.append(ratio)
            windows.append({
                "window": w,
                "ln_f": team[0].ln_f,
                "iteration": team[0].n_iterations,
                "flatness": round(ratio, 6),
                "converged": bool(driver.window_converged[w]),
                "quarantined": bool(quarantined[w]),
            })

        pairs, collapsed = self._exchange_deltas(driver)
        retries_delta = self._retries_delta()
        total_steps = sum(team[0].n_steps for team in driver.walkers)
        now_mono = time.monotonic()
        interval_s = (
            None if self._last_mono is None else now_mono - self._last_mono
        )
        steps_per_s = None
        if interval_s and interval_s > 0 and total_steps > self._last_steps:
            steps_per_s = (total_steps - self._last_steps) / interval_s
        self._last_mono = now_mono
        self._last_steps = total_steps

        # Campaign ETA from the convergence ledger, when one is attached
        # (:mod:`repro.obs.convergence`); None until it has enough history.
        ledger = getattr(driver, "convergence", None)
        eta = ledger.eta(driver) if ledger is not None else None

        # Resilience posture rides on the heartbeat so the live dash shows
        # quarantines/budget without a second event stream.
        supervisor = getattr(driver, "supervisor", None)
        budget = dict(supervisor.budget_status) if supervisor is not None else None

        self.obs.metrics.inc("health.heartbeats")
        if self.obs.enabled:
            self.obs.emit(
                HEARTBEAT_KIND, round=driver.rounds, windows=windows,
                pairs=pairs, steps=total_steps, retries=retries_delta,
                converged_windows=sum(bool(c) for c in driver.window_converged),
                quarantined_windows=sum(bool(q) for q in quarantined),
                budget=budget,
                eta=eta,
                interval_s=(
                    None if interval_s is None else round(interval_s, 4)
                ),
                steps_per_s=(
                    None if steps_per_s is None else round(steps_per_s, 2)
                ),
            )

        self._detect_stall(driver, iterations, flatness)
        self._detect_collapse(driver, collapsed)
        if retries_delta >= self.cfg.retry_alert:
            self._alert(driver, "retry_burst",
                        f"{retries_delta} task retries since last heartbeat",
                        retries=retries_delta)

        self._last_iterations = iterations
        self._last_flatness = flatness
        self._last_converged = sum(bool(c) for c in driver.window_converged)

    # ------------------------------------------------------------ detectors

    def _exchange_deltas(self, driver) -> tuple[list[dict], list[int]]:
        attempts = driver.exchange_attempts
        accepts = driver.exchange_accepts
        if self._last_attempts is None:
            d_att = attempts.copy()
            d_acc = accepts.copy()
        else:
            d_att = attempts - self._last_attempts
            d_acc = accepts - self._last_accepts
        self._last_attempts = attempts.copy()
        self._last_accepts = accepts.copy()
        pairs = []
        collapsed = []
        for pair in range(len(d_att)):
            att, acc = int(d_att[pair]), int(d_acc[pair])
            rate = acc / att if att else None
            pairs.append({"pair": pair, "attempts": att, "accepts": acc,
                          "rate": None if rate is None else round(rate, 4)})
            if att >= self.cfg.min_exchange_attempts \
                    and (rate or 0.0) < self.cfg.min_exchange_rate:
                collapsed.append(pair)
        return pairs, collapsed

    def _retries_delta(self) -> int:
        total = 0
        if "task.retries" in self.obs.metrics:
            total = self.obs.metrics.counter("task.retries").value
        delta = total - self._last_retries
        self._last_retries = total
        return delta

    def _detect_stall(self, driver, iterations, flatness) -> None:
        if self._last_iterations is None:
            return  # first heartbeat: no baseline yet
        progressed = (
            any(a > b for a, b in zip(iterations, self._last_iterations))
            or any(
                a > b + self.cfg.flatness_epsilon
                for a, b in zip(flatness, self._last_flatness)
            )
            or sum(bool(c) for c in driver.window_converged) > self._last_converged
        )
        # A quarantined window is settled, not stalled: only windows still
        # expected to progress count toward the stall detector.
        quarantined = getattr(
            driver, "window_quarantined", [False] * len(driver.window_converged)
        )
        settled = all(
            c or q for c, q in zip(driver.window_converged, quarantined)
        )
        if progressed or settled:
            self._stall_streak = 0
            return
        self._stall_streak += 1
        if self._stall_streak >= self.cfg.stall_heartbeats:
            self._alert(
                driver, "stall",
                f"no histogram progress for {self._stall_streak} heartbeats "
                f"({self._stall_streak * self.cfg.heartbeat_rounds} rounds)",
                heartbeats=self._stall_streak,
            )

    def _detect_collapse(self, driver, collapsed: list[int]) -> None:
        for pair in list(self._collapse_streaks):
            if pair not in collapsed:
                del self._collapse_streaks[pair]
        for pair in collapsed:
            streak = self._collapse_streaks.get(pair, 0) + 1
            self._collapse_streaks[pair] = streak
            if streak >= self.cfg.stall_heartbeats:
                self._alert(
                    driver, "exchange_collapse",
                    f"window pair {pair}-{pair + 1} acceptance below "
                    f"{self.cfg.min_exchange_rate:.1%} for {streak} heartbeats",
                    pair=pair, heartbeats=streak,
                )

    def _alert(self, driver, alert: str, detail: str, **fields) -> None:
        record = {"alert": alert, "round": driver.rounds, "detail": detail,
                  **fields}
        self.alerts.append(record)
        self.obs.metrics.inc("health.alerts")
        self.obs.metrics.inc(f"health.alerts.{alert}")
        if self.obs.enabled:
            self.obs.emit(ALERT_KIND, **record)

    # -------------------------------------------------------------- summary

    def summary(self) -> dict:
        """JSON-ready digest for ``REWLResult.telemetry["health"]``."""
        return {
            "heartbeats": self.heartbeats,
            "alerts": list(self.alerts),
        }


# ------------------------------------------------------------- env activation

_KEY_ALIASES = {
    "rounds": "heartbeat_rounds",
    "heartbeat_rounds": "heartbeat_rounds",
    "stall": "stall_heartbeats",
    "stall_heartbeats": "stall_heartbeats",
    "min_rate": "min_exchange_rate",
    "min_exchange_rate": "min_exchange_rate",
    "min_attempts": "min_exchange_attempts",
    "min_exchange_attempts": "min_exchange_attempts",
    "retries": "retry_alert",
    "retry_alert": "retry_alert",
}

_INT_FIELDS = {"heartbeat_rounds", "stall_heartbeats",
               "min_exchange_attempts", "retry_alert"}


def parse_health(spec: str) -> HealthConfig:
    """Parse a ``REPRO_HEALTH`` value: ``"1"`` or ``"rounds=20,stall=3,..."``."""
    value = spec.strip().lower()
    if value in ("1", "on", "true"):
        return HealthConfig()
    kwargs = {}
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        field = _KEY_ALIASES.get(key.strip())
        if not sep or field is None:
            known = ", ".join(sorted(set(_KEY_ALIASES)))
            raise ValueError(
                f"bad {HEALTH_ENV_VAR} entry {part!r}; expected 1/on or "
                f"key=value with key in {{{known}}}"
            )
        try:
            kwargs[field] = int(raw) if field in _INT_FIELDS else float(raw)
        except ValueError as exc:
            raise ValueError(
                f"bad {HEALTH_ENV_VAR} value for {key!r}: {raw!r}"
            ) from exc
    return HealthConfig(**kwargs)


def health_from_env(env_var: str = HEALTH_ENV_VAR) -> HealthConfig | None:
    """A :class:`HealthConfig` from the environment, or None when disabled."""
    value = os.environ.get(env_var, "").strip()
    if value.lower() in ("", "0", "off", "false"):
        return None
    return parse_health(value)
