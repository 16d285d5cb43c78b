"""Live run-health monitoring for long REWL campaigns.

A multi-day flat-histogram campaign can fail *quietly*: a window stops
making histogram progress, exchange acceptance between two windows
collapses to zero (the replica ladder is severed), or the advance loop
burns its retry budget on a flaky node.  :class:`HealthMonitor` consumes the
driver's per-round :class:`~repro.obs.sample.RoundSample` and surfaces those
conditions as structured telemetry:

- **heartbeat** events every ``heartbeat_rounds`` rounds carrying, per
  window, the flatness ratio (min/mean of the visit histogram over visited
  bins), fill, ``ln f`` and the WL iteration count; per adjacent window
  pair, the exchange attempts/accepts/rate since the previous heartbeat;
  the task-retry delta; and the heartbeat interval + walker throughput
  measured on the record's ``time.monotonic()`` stamp — internal timing
  never uses the wall clock, so stall/rate math survives NTP steps and DST
  jumps on multi-day campaigns (the envelope ``ts`` stays wall time for log
  correlation),
- **health_alert** events from three detectors:
  ``stall`` (no window advanced an iteration, improved its flatness ratio,
  or converged for ``stall_heartbeats`` consecutive heartbeats),
  ``exchange_collapse`` (a pair's per-heartbeat acceptance stayed below
  ``min_exchange_rate`` over ``stall_heartbeats`` heartbeats with enough
  attempts to judge), and ``retry_burst`` (``retry_alert`` or more task
  retries — injected crashes and hangs, in process or on shm ranks —
  inside one heartbeat window).

The monitor writes only telemetry and its own baseline, which rides the
REWL checkpoint, so a monitored run is bit-identical to a bare one and a
resumed campaign's heartbeats continue where the straight run's would
(both tested in ``tests/test_obs_health.py``).  ``obs report``, ``obs
dash`` and ``obs tail`` render the events.

Environment wiring: ``REPRO_HEALTH=1`` (or
``"rounds=20,stall=3,min_rate=0.02,min_attempts=4,retries=1"``) attaches a
monitor to any REWL entry point without new flags.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import ClassVar

from repro.obs.sample import RoundSample
from repro.util.validation import EnvSpec, check_integer, check_probability

__all__ = [
    "HEALTH_ENV_VAR",
    "HealthConfig",
    "HealthMonitor",
]

HEALTH_ENV_VAR = "REPRO_HEALTH"

#: Heartbeat/alert event kinds (consumed by report/dash/tail).
HEARTBEAT_KIND = "heartbeat"
ALERT_KIND = "health_alert"


@dataclass(frozen=True)
class HealthConfig(EnvSpec):
    """Cadence and thresholds for :class:`HealthMonitor`."""

    ENV_VAR: ClassVar[str] = HEALTH_ENV_VAR
    SPEC_KEYS: ClassVar[dict[str, str]] = {
        "rounds": "heartbeat_rounds", "heartbeat_rounds": "heartbeat_rounds",
        "stall": "stall_heartbeats", "stall_heartbeats": "stall_heartbeats",
        "min_rate": "min_exchange_rate",
        "min_exchange_rate": "min_exchange_rate",
        "min_attempts": "min_exchange_attempts",
        "min_exchange_attempts": "min_exchange_attempts",
        "retries": "retry_alert", "retry_alert": "retry_alert",
    }

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


class HealthMonitor:
    """Heartbeat and alert consumer of a REWL driver's round records.

    The driver calls :meth:`observe_round` after every round; the monitor
    takes the round's :class:`~repro.obs.sample.RoundSample` only on
    heartbeat rounds, so the per-round cost is one modulo.  Alerts are also
    kept on :attr:`alerts` for programmatic access (they land in
    ``REWLResult.telemetry["health"]``).
    """

    def __init__(self, telemetry, config: HealthConfig | None = None):
        self.obs = telemetry
        self.cfg = config or HealthConfig()
        self.heartbeats = 0
        self.alerts: list[dict] = []
        # The baseline the next heartbeat is measured against (checkpointed).
        self._iterations: list[int] | None = None
        self._flatness: list[float] | None = None
        self._converged = 0
        self._attempts: list[int] | None = None
        self._accepts: list[int] | None = None
        self._retries = 0
        self._stall_streak = 0
        self._collapse_streaks: dict[int, int] = {}
        # Timing baseline: a monotonic stamp means nothing in another
        # process, so it is not checkpointed.
        self._previous: RoundSample | None = None

    # -------------------------------------------------------------- observe

    def observe_round(self, driver) -> None:
        """Take the driver's round record on heartbeat rounds."""
        if driver.rounds % self.cfg.heartbeat_rounds == 0:
            self.consume(driver.round_sample())

    def consume(self, sample: RoundSample) -> None:
        """One heartbeat (and its alerts) from a round record."""
        self.heartbeats += 1
        iterations = [w.iteration for w in sample.windows]
        flatness = [w.flatness for w in sample.windows]
        pairs, collapsed = self._exchange_deltas(sample)
        retries = sample.retries - self._retries
        previous = self._previous
        interval_s = None if previous is None else sample.mono - previous.mono
        steps_per_s = sample.steps_per_s(previous)

        self.obs.metrics.inc("health.heartbeats")
        if self.obs.enabled:
            self.obs.emit(
                HEARTBEAT_KIND, round=sample.round,
                windows=[w.row() for w in sample.windows],
                pairs=pairs, steps=sample.steps, retries=retries,
                converged_windows=sample.converged_windows,
                quarantined_windows=sample.quarantined_windows,
                budget=sample.budget,
                eta=sample.eta,
                interval_s=None if interval_s is None else round(interval_s, 4),
                steps_per_s=None if steps_per_s is None else round(steps_per_s, 2),
            )

        self._detect_stall(sample, iterations, flatness)
        self._detect_collapse(sample, collapsed)
        if retries >= self.cfg.retry_alert:
            self._alert(sample, "retry_burst",
                        f"{retries} task retries since last heartbeat",
                        retries=retries)

        self._iterations = iterations
        self._flatness = flatness
        self._converged = sample.converged_windows
        self._attempts = list(sample.exchange_attempts)
        self._accepts = list(sample.exchange_accepts)
        self._retries = sample.retries
        self._previous = sample

    # ------------------------------------------------------------ detectors

    def _exchange_deltas(self, sample) -> tuple[list[dict], list[int]]:
        last_att = self._attempts or [0] * len(sample.exchange_attempts)
        last_acc = self._accepts or [0] * len(sample.exchange_accepts)
        pairs = []
        collapsed = []
        for pair, (att, acc) in enumerate(zip(sample.exchange_attempts,
                                              sample.exchange_accepts)):
            att -= last_att[pair]
            acc -= last_acc[pair]
            rate = acc / att if att else None
            pairs.append({"pair": pair, "attempts": att, "accepts": acc,
                          "rate": None if rate is None else round(rate, 4)})
            if att >= self.cfg.min_exchange_attempts \
                    and (rate or 0.0) < self.cfg.min_exchange_rate:
                collapsed.append(pair)
        return pairs, collapsed

    def _detect_stall(self, sample, iterations, flatness) -> None:
        if self._iterations is None:
            return  # first heartbeat: no baseline yet
        progressed = (
            any(a > b for a, b in zip(iterations, self._iterations))
            or any(
                a > b + self.cfg.flatness_epsilon
                for a, b in zip(flatness, self._flatness)
            )
            or sample.converged_windows > self._converged
        )
        # A quarantined window is settled, not stalled: only windows still
        # expected to progress count toward the stall detector.
        settled = all(w.converged or w.quarantined for w in sample.windows)
        if progressed or settled:
            self._stall_streak = 0
            return
        self._stall_streak += 1
        if self._stall_streak >= self.cfg.stall_heartbeats:
            self._alert(
                sample, "stall",
                f"no histogram progress for {self._stall_streak} heartbeats "
                f"({self._stall_streak * self.cfg.heartbeat_rounds} rounds)",
                heartbeats=self._stall_streak,
            )

    def _detect_collapse(self, sample, collapsed: list[int]) -> None:
        for pair in list(self._collapse_streaks):
            if pair not in collapsed:
                del self._collapse_streaks[pair]
        for pair in collapsed:
            streak = self._collapse_streaks.get(pair, 0) + 1
            self._collapse_streaks[pair] = streak
            if streak >= self.cfg.stall_heartbeats:
                self._alert(
                    sample, "exchange_collapse",
                    f"window pair {pair}-{pair + 1} acceptance below "
                    f"{self.cfg.min_exchange_rate:.1%} for {streak} heartbeats",
                    pair=pair, heartbeats=streak,
                )

    def _alert(self, sample, alert: str, detail: str, **fields) -> None:
        record = {"alert": alert, "round": sample.round, "detail": detail,
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

    # --------------------------------------------------------- checkpoint

    #: Checkpointed attributes; the payload key drops the leading underscore.
    _STATE = ("heartbeats", "alerts", "_iterations", "_flatness",
              "_converged", "_attempts", "_accepts", "_retries",
              "_stall_streak", "_collapse_streaks")

    def state_dict(self) -> dict:
        """Counts, alerts and the heartbeat baseline, for the REWL
        checkpoint payload (plain data)."""
        return copy.deepcopy(
            {name.lstrip("_"): getattr(self, name) for name in self._STATE}
        )

    def load_state(self, state: dict) -> None:
        """Restore from :meth:`state_dict`; the next heartbeat's interval
        and throughput restart (no timing baseline in a new process)."""
        for name in self._STATE:
            setattr(self, name, copy.deepcopy(state[name.lstrip("_")]))
        self._previous = None
