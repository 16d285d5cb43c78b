"""Campaign-level self-healing: escalation, quarantine, and budgets.

The REWL driver delegates every recovery *decision* to one object here,
:class:`CampaignSupervisor`, so the policy is testable in isolation and the
driver stays a straight-line loop.  The supervisor tracks a small state
machine per window::

    healthy -> retrying -> rolled-back -> quarantined

- **healthy**: last guarded round was clean.
- **retrying**: the advance loop burned retries on this window this round
  (transient crashes/hangs absorbed below the supervisor).
- **rolled-back**: a guard trip or exhausted task failure restored the
  window's last guard-clean in-memory snapshot.
- **quarantined**: the rollback budget is spent; the window is removed from
  the exchange topology (neighbors re-pair around the hole, see
  :func:`repro.parallel.windows.surviving_pairs`), its walkers are frozen
  at the last good snapshot, and the rest of the campaign keeps stepping.

Budgets are the other half of graceful degradation: a campaign that hits
its wall-clock / round / step ceiling terminates *cleanly* — the driver
breaks out of the loop and harvests whatever converged, instead of dying
to a job-scheduler SIGKILL with nothing to show.

Determinism: the supervisor draws no random numbers, and snapshots are
byte-copies of walker state.  A degraded run driven by seeded faults is
therefore bit-identically reproducible — same seed, same trips, same
rollbacks, same quarantine round, same stitched result.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar

from repro.resilience.guards import (
    GuardPolicy,
    GuardViolation,
    check_team,
)
from repro.util.validation import EnvSpec, check_integer

__all__ = [
    "RESILIENCE_ENV_VAR",
    "BudgetPolicy",
    "CampaignSupervisor",
    "ResilienceConfig",
    "WindowState",
]

RESILIENCE_ENV_VAR = "REPRO_RESILIENCE"

#: Disposition names, in escalation order (report/dash render these).
DISPOSITIONS = ("healthy", "retrying", "rolled-back", "quarantined")


@dataclass(frozen=True)
class BudgetPolicy:
    """Clean terminate-and-harvest ceilings (None/0 = unlimited).

    ``rounds`` and ``steps`` are deterministic (counters the driver already
    keeps); ``wall_s`` reads the monotonic clock and is therefore the one
    knowingly non-reproducible trigger — use the counters when bit-identity
    matters.
    """

    wall_s: float | None = None
    rounds: int | None = None
    steps: int | None = None

    def __post_init__(self):
        if self.wall_s is not None and self.wall_s < 0:
            raise ValueError(f"wall_s must be >= 0, got {self.wall_s!r}")
        if self.rounds is not None:
            check_integer("rounds", self.rounds, minimum=0)
        if self.steps is not None:
            check_integer("steps", self.steps, minimum=0)

    @property
    def unlimited(self) -> bool:
        return self.wall_s is None and self.rounds is None and self.steps is None


def _count(raw: str) -> int:
    return int(float(raw))  # accepts "5e8"


@dataclass(frozen=True)
class ResilienceConfig(EnvSpec):
    """Everything the campaign supervisor needs: guards + budgets.

    ``REPRO_RESILIENCE`` is ``"1"``/``"on"`` for the defaults (quarantine
    mode, no budgets), or ``key=value`` pairs such as
    ``"mode=rollback,rollbacks=3,wall_s=3600,steps=5e8"``.
    """

    ENV_VAR: ClassVar[str] = RESILIENCE_ENV_VAR
    SPEC_KEYS: ClassVar[dict[str, str]] = {
        "mode": "mode", "snapshot_interval": "snapshot_interval",
        "max_rollbacks": "max_rollbacks", "rollbacks": "max_rollbacks",
        "wall_s": "wall_s", "wall": "wall_s",
        "rounds": "rounds", "steps": "steps",
    }
    SPEC_TYPES: ClassVar[dict[str, Callable]] = {
        "mode": str, "max_rollbacks": _count, "snapshot_interval": _count,
        "wall_s": float, "rounds": _count, "steps": _count,
    }

    guards: GuardPolicy = field(default_factory=GuardPolicy)
    budget: BudgetPolicy = field(default_factory=BudgetPolicy)

    @classmethod
    def from_fields(cls, values: dict) -> "ResilienceConfig":
        guard_keys = {f.name for f in fields(GuardPolicy)}
        return cls(
            guards=GuardPolicy(**{k: v for k, v in values.items()
                                  if k in guard_keys}),
            budget=BudgetPolicy(**{k: v for k, v in values.items()
                                   if k not in guard_keys}),
        )


@dataclass
class WindowState:
    """Mutable per-window ledger the supervisor keeps."""

    disposition: str = "healthy"
    guard_trips: int = 0
    task_failures: int = 0
    rollbacks: int = 0          # lifetime total (reporting)
    rollback_streak: int = 0    # consecutive — resets on a clean round
    reason: str = ""            # first line of why we left "healthy"
    quarantined_round: int | None = None
    last_ln_f: float | None = None

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class CampaignSupervisor:
    """Applies a :class:`ResilienceConfig` to a running REWL driver.

    The driver calls, per round::

        budget_exceeded(driver)      # loop top: terminate-and-harvest?
        on_window_failure(driver, w, exc)   # advance tasks exhausted retries
        guard_round(driver)          # post-advance: validate + escalate
        snapshot(driver)             # record guard-clean windows

    plus :meth:`state_dict`/:meth:`load_state_dict` for checkpoint
    ride-along and :meth:`summary` for the result/telemetry payload.
    """

    def __init__(self, config: ResilienceConfig, telemetry=None):
        self.cfg = config
        self.telemetry = telemetry
        self.windows: list[WindowState] = []
        self._snapshots: list[bytes | None] = []
        self._started = time.monotonic()
        self._rounds_guarded = 0
        # Windows that failed/tripped since the last guarded round: a
        # restored snapshot passes the guards, but that must not count as a
        # clean round, or a permanently failing window would reset its own
        # rollback streak every round and never escalate to quarantine.
        self._round_tripped: set[int] = set()
        self.budget_status: dict = {"exhausted": False, "trigger": None}

    # ------------------------------------------------------------ wiring

    def bind(self, driver) -> None:
        """Size per-window state once the driver knows its window count."""
        n = len(driver.windows)
        if len(self.windows) != n:
            self.windows = [WindowState() for _ in range(n)]
            self._snapshots = [None] * n
        self._started = time.monotonic()

    def _emit(self, kind: str, **payload) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(kind, **payload)

    # ------------------------------------------------------------ budgets

    def budget_exceeded(self, driver) -> bool:
        """True once any budget ceiling is hit (sticky; emits one event)."""
        if self.budget_status["exhausted"]:
            return True
        b = self.cfg.budget
        trigger = None
        if b.rounds is not None and b.rounds > 0 and driver.rounds >= b.rounds:
            trigger = f"rounds ({driver.rounds} >= {b.rounds})"
        elif b.steps is not None and b.steps > 0:
            total = driver.total_steps()
            if total >= b.steps:
                trigger = f"steps ({total} >= {b.steps})"
        if trigger is None and b.wall_s is not None and b.wall_s > 0:
            elapsed = time.monotonic() - self._started
            if elapsed >= b.wall_s:
                trigger = f"wall clock ({elapsed:.1f}s >= {b.wall_s:.1f}s)"
        if trigger is None:
            return False
        self.budget_status = {"exhausted": True, "trigger": trigger}
        self._emit("budget_exhausted", round=driver.rounds, trigger=trigger)
        return True

    # --------------------------------------------------------- snapshots

    def snapshot(self, driver) -> None:
        """Byte-copy guard-clean window teams for later rollback.

        Taken *after* :meth:`guard_round`, so a snapshot is always of
        validated state; pickling keeps walker RNG state with the walkers,
        preserving bit-identity across a restore.
        """
        if self._rounds_guarded % self.cfg.guards.snapshot_interval != 0:
            return
        for w, state in enumerate(self.windows):
            if state.disposition == "quarantined":
                continue
            self._snapshots[w] = pickle.dumps(driver.walkers[w])

    def snapshot_window(self, driver, w: int) -> None:
        """Per-window snapshot for the overlapped (shm) drain loop.

        Called after :meth:`guard_window` but *before* the round's
        :meth:`end_guard_round`, so the cadence check uses the round about
        to be accounted (``_rounds_guarded + 1``) — the same rounds are
        snapshotted as in the barriered guard→snapshot sequence.
        """
        if (self._rounds_guarded + 1) % self.cfg.guards.snapshot_interval != 0:
            return
        if self.windows[w].disposition == "quarantined":
            return
        self._snapshots[w] = pickle.dumps(driver.walkers[w])

    def _restore(self, driver, w: int) -> bool:
        blob = self._snapshots[w]
        if blob is None:
            return False
        driver.walkers[w] = pickle.loads(blob)
        driver._retag_window(w)
        return True

    # -------------------------------------------------------- escalation

    def on_window_failure(self, driver, w: int, exc: Exception) -> None:
        """Window ``w``'s advance exhausted its retries (or its rank died)."""
        state = self.windows[w]
        state.task_failures += 1
        reason = f"{type(exc).__name__}: {exc}"
        self._escalate(driver, w, f"task failure ({reason})")

    def guard_round(self, driver) -> None:
        """Validate every live window post-advance; escalate violations."""
        for w in range(len(self.windows)):
            self.guard_window(driver, w)
        self.end_guard_round()

    def guard_window(self, driver, w: int) -> None:
        """Validate one window post-advance; escalate violations.

        The per-window half of :meth:`guard_round`, used by the overlapped
        shm drain loop to guard each window the moment its super-step
        lands (instead of barriering the whole round first).  Callers must
        finish the round with :meth:`end_guard_round`.
        """
        state = self.windows[w]
        if state.disposition == "quarantined":
            return
        violations = check_team(
            driver.walkers[w], last_ln_f=state.last_ln_f
        )
        if violations:
            state.guard_trips += 1
            self._emit(
                "guard_trip", round=driver.rounds, window=w,
                violations=violations,
            )
            self._escalate(driver, w, f"guard: {violations[0]}")
        elif w not in self._round_tripped:
            # Clean round: record ln f high-water mark for the
            # monotone check and forgive the rollback streak.
            walker = driver.walkers[w][0]
            state.last_ln_f = float(walker.ln_f)
            state.rollback_streak = 0
            if state.disposition in ("retrying", "rolled-back"):
                state.disposition = "healthy"

    def end_guard_round(self) -> None:
        """Close a round of per-window guards (streak/round bookkeeping)."""
        self._round_tripped.clear()
        self._rounds_guarded += 1

    def _escalate(self, driver, w: int, reason: str) -> None:
        """One corruption/failure signal for window ``w`` -> policy action."""
        policy = self.cfg.guards
        state = self.windows[w]
        self._round_tripped.add(w)
        if not state.reason:
            state.reason = reason
        if policy.mode == "strict":
            raise GuardViolation(
                f"window {w} failed under strict guard policy: {reason}"
            )
        if state.rollback_streak < policy.max_rollbacks and self._restore(driver, w):
            state.rollbacks += 1
            state.rollback_streak += 1
            state.disposition = "rolled-back"
            # ln f may legitimately move backwards across a rollback.
            state.last_ln_f = None
            self._emit(
                "window_rollback", round=driver.rounds, window=w,
                rollback=state.rollbacks, reason=reason,
            )
            return
        if policy.mode == "rollback":
            raise GuardViolation(
                f"window {w} exhausted its rollback budget "
                f"({policy.max_rollbacks}): {reason}"
            )
        self._quarantine(driver, w, reason)

    def _quarantine(self, driver, w: int, reason: str) -> None:
        state = self.windows[w]
        state.disposition = "quarantined"
        state.quarantined_round = driver.rounds
        # Freeze the window at its last guard-clean snapshot so the harvest
        # never reports corrupted state; if no snapshot exists yet, leave
        # the live walkers (their state predates any failure we can undo).
        self._restore(driver, w)
        driver.window_quarantined[w] = True
        self._emit(
            "window_quarantine", round=driver.rounds, window=w, reason=reason,
        )

    # ----------------------------------------------------------- queries

    @property
    def quarantined(self) -> list[int]:
        return [w for w, s in enumerate(self.windows)
                if s.disposition == "quarantined"]

    @property
    def degraded(self) -> bool:
        """True when the campaign result is partial or policy-affected."""
        return bool(self.quarantined) or self.budget_status["exhausted"]

    def dispositions(self) -> list[dict]:
        """Per-window disposition table (result/manifest payload)."""
        return [
            {"window": w, **{k: v for k, v in s.as_dict().items()
                             if k != "last_ln_f"}}
            for w, s in enumerate(self.windows)
        ]

    def summary(self) -> dict:
        """The ``telemetry["resilience"]`` block."""
        return {
            "mode": self.cfg.guards.mode,
            "degraded": self.degraded,
            "guard_trips": sum(s.guard_trips for s in self.windows),
            "task_failures": sum(s.task_failures for s in self.windows),
            "rollbacks": sum(s.rollbacks for s in self.windows),
            "quarantined": self.quarantined,
            "budget": dict(self.budget_status),
            "windows": self.dispositions(),
        }

    # -------------------------------------------------------- checkpoint

    def state_dict(self) -> dict:
        """Checkpoint ride-along (snapshots are re-taken after restore)."""
        return {
            "windows": [s.as_dict() for s in self.windows],
            "budget_status": dict(self.budget_status),
            "rounds_guarded": self._rounds_guarded,
        }

    def load_state_dict(self, state: dict) -> None:
        self.windows = [WindowState(**w) for w in state["windows"]]
        self._snapshots = [None] * len(self.windows)
        self.budget_status = dict(state["budget_status"])
        self._rounds_guarded = int(state["rounds_guarded"])
        self._started = time.monotonic()
