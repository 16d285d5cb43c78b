"""Deterministic fault injection for chaos-testing the parallel stack.

Production flat-histogram campaigns run for days across thousands of
workers, where crashes, hangs, and storage corruption are routine.  This
module makes those failures *reproducible*: a :class:`FaultInjector` draws
every fault decision from a counter-based RNG keyed on
``(seed, site, task, attempt)``, so a chaos run is a pure function of its
seed — the same faults fire at the same places every time, and a fixed bug
stays fixed.

Faults are injected *before* the wrapped task body runs (a worker that dies
mid-task never returns a result, so dying before the body is operationally
equivalent and keeps walker state untouched).  The task is one window's
advance in one round (:func:`repro.parallel.rewl.advance_windows`, the same
loop in process and inside shm worker ranks), keyed ``(window, round)`` so
each round draws its own faults; because a retried attempt
starts from the same state, a run that survives its injected faults is
bit-identical to the fault-free run with the same seed (tested in
``tests/test_faults.py``).

Fault kinds
-----------
- ``crash`` — raise :class:`InjectedCrash` (a task-level failure),
- ``hang``  — sleep ``hang_s`` seconds, then raise :class:`InjectedHang`
  (a slow failure, never mutating walker state),
- ``corrupt`` — checkpoint I/O faults: flip a payload byte (caught by the
  SHA-256 integrity check) or die between the tmp write and the atomic
  rename (the previous snapshot must survive),
- ``nan``  — *silent numerical corruption*: the task body runs normally,
  then the returned walker is deterministically poisoned (a non-finite
  ``ln g`` entry or walker energy).  Nothing raises — exactly the failure
  mode only the :mod:`repro.resilience` guard rails can catch,
- ``slow`` — a seeded fixed delay (``slow_s``) before the task body; the
  task then *succeeds*, exercising stall detection and wall-clock budgets
  without perturbing any walker state.

``window`` (default −1 = everywhere) restricts task faults to tasks whose
walker belongs to one REWL window — the knob behind "permanently kill
window 1 and watch the campaign degrade gracefully" chaos tests.

Activation: pass a :class:`FaultInjector` explicitly, or set the
``REPRO_FAULTS`` environment knob, e.g.::

    REPRO_FAULTS="crash=0.1,hang=0.05,hang_s=0.02,seed=3"
    REPRO_FAULTS="nan=1.0,window=1,seed=0"   # poison window 1, every round

and every REWL driver (at construction), shm worker rank (at spawn) and
checkpoint write picks it up.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.util.validation import EnvSpec, check_probability

__all__ = [
    "FAULTS_ENV_VAR",
    "FaultConfig",
    "FaultInjector",
    "InjectedCrash",
    "InjectedFault",
    "InjectedHang",
    "faults_from_env",
]

FAULTS_ENV_VAR = "REPRO_FAULTS"


class InjectedFault(RuntimeError):
    """Base class for failures raised by the fault injector."""


class InjectedCrash(InjectedFault):
    """A task/checkpoint failure injected by :class:`FaultInjector`."""


class InjectedHang(InjectedFault):
    """A slow task injected by :class:`FaultInjector` (sleep, then raise)."""


@dataclass(frozen=True)
class FaultConfig(EnvSpec):
    """Per-site fault probabilities plus the injector seed.

    ``crash``/``hang``/``nan``/``slow`` apply per task *attempt* (their
    sum must be <= 1); ``corrupt`` applies per checkpoint write.
    ``hang_s``/``slow_s`` are the simulated hang/delay durations in
    seconds.  ``window >= 0`` restricts task faults to walkers of that REWL
    window (checkpoint faults are campaign-wide and unaffected).
    ``REPRO_FAULTS`` spells them ``"crash=0.1,hang=0.05,seed=3"``.
    """

    ENV_VAR: ClassVar[str] = FAULTS_ENV_VAR
    SPEC_KEYS: ClassVar[dict[str, str]] = {
        key: key for key in ("crash", "hang", "nan", "slow", "corrupt",
                             "hang_s", "slow_s", "seed", "window")
    }
    SHORTHAND: ClassVar[bool] = False  # "1" would inject nothing: reject it

    crash: float = 0.0
    hang: float = 0.0
    nan: float = 0.0
    slow: float = 0.0
    corrupt: float = 0.0
    hang_s: float = 0.05
    slow_s: float = 0.02
    seed: int = 0
    window: int = -1

    def __post_init__(self):
        for name in ("crash", "hang", "nan", "slow", "corrupt"):
            check_probability(name, getattr(self, name))
        check_probability(
            "crash + hang + nan + slow",
            self.crash + self.hang + self.nan + self.slow,
        )
        if self.hang_s < 0:
            raise ValueError(f"hang_s must be >= 0, got {self.hang_s!r}")
        if self.slow_s < 0:
            raise ValueError(f"slow_s must be >= 0, got {self.slow_s!r}")
        if self.window < -1:
            raise ValueError(f"window must be >= -1, got {self.window!r}")

    @property
    def any_task_faults(self) -> bool:
        return (self.crash + self.hang + self.nan + self.slow) > 0.0

    @property
    def any_checkpoint_faults(self) -> bool:
        return self.corrupt > 0.0


def _site_code(site: str) -> int:
    """Stable non-negative integer code for a site name (crc32)."""
    return zlib.crc32(site.encode("utf-8"))


def _draw(cfg: FaultConfig, site: str, key, attempt: int) -> float:
    """One uniform draw, a pure function of (seed, site, key, attempt);
    ``key`` is an int or a tuple of ints."""
    key = key if isinstance(key, tuple) else (key,)
    rng = np.random.default_rng([cfg.seed, _site_code(site), *map(int, key), int(attempt)])
    return float(rng.random())


class FaultInjector:
    """Deterministic fault decisions plus task wrapping.

    Decisions depend only on the config seed, the site name, the task key,
    and the attempt index — never on wall-clock, pids, or global RNG state —
    so runs replay exactly and a retried attempt gets a fresh, deterministic
    draw (a task is not doomed to crash forever).
    """

    def __init__(self, config: FaultConfig):
        self.cfg = config

    # ------------------------------------------------------------ decisions

    def decide_task(self, key, attempt: int) -> str | None:
        """``"crash"``/``"hang"``/``"nan"``/``"slow"``/None for one task
        attempt."""
        cfg = self.cfg
        if not cfg.any_task_faults:
            return None
        u = _draw(cfg, "task", key, attempt)
        band = cfg.crash
        if u < band:
            return "crash"
        band += cfg.hang
        if u < band:
            return "hang"
        band += cfg.nan
        if u < band:
            return "nan"
        band += cfg.slow
        if u < band:
            return "slow"
        return None

    def decide_checkpoint(self, key: int) -> str | None:
        """``"corrupt"`` / ``"crash"`` / None for one checkpoint write.

        The ``corrupt`` probability mass is split evenly between payload
        corruption (caught by the integrity check on load) and dying between
        the tmp-file write and the atomic rename (the previous snapshot must
        survive).
        """
        cfg = self.cfg
        if not cfg.any_checkpoint_faults:
            return None
        u = _draw(cfg, "checkpoint", key, 0)
        if u < cfg.corrupt / 2.0:
            return "corrupt"
        if u < cfg.corrupt:
            return "crash"
        return None

    # ------------------------------------------------------------- wrapping

    def wrap(self, fn, key, attempt: int):
        """Wrap a task callable with this injector's decision for one attempt.

        The wrapper is picklable as long as ``fn`` is, and is a no-op
        passthrough when no task faults are configured.
        """
        if not self.cfg.any_task_faults:
            return fn
        return _FaultyCall(self.cfg, fn, key, attempt)


class _FaultyCall:
    """Picklable task wrapper: consult the decision, maybe fault, else run."""

    def __init__(self, cfg: FaultConfig, fn, key, attempt: int):
        self.cfg = cfg
        self.fn = fn
        self.key = key
        self.attempt = int(attempt)

    def __call__(self, *args, **kwargs):
        action = FaultInjector(self.cfg).decide_task(self.key, self.attempt)
        if action is not None and self.cfg.window >= 0:
            # Window targeting: only walkers tagged with the configured
            # window fault; everything else runs clean.  The decision draw
            # is stateless, so gating after it changes nothing else.
            tag = getattr(args[0], "obs_tag", None) if args else None
            if tag is None or tag[0] != self.cfg.window:
                action = None
        if action == "hang":
            time.sleep(self.cfg.hang_s)
            raise InjectedHang(
                f"injected hang ({self.cfg.hang_s}s, task {self.key}, "
                f"attempt {self.attempt})"
            )
        if action == "crash":
            raise InjectedCrash(
                f"injected crash (task {self.key}, attempt {self.attempt})"
            )
        if action == "slow":
            # Seeded fixed delay, then a *successful* run: stall/budget
            # paths get exercised with zero effect on walker state.
            time.sleep(self.cfg.slow_s)
        result = self.fn(*args, **kwargs)
        if action == "nan":
            _poison_walker(self.cfg, result, self.key, self.attempt)
        return result


def _poison_walker(cfg: FaultConfig, walker, key, attempt: int) -> None:
    """Silent numerical corruption of a completed task's window team.

    Deterministically (secondary draw on its own site) either drops a NaN
    into the middle of ``ln g`` or blows up a walker energy — the two
    corruption shapes the resilience guards must catch.  No exception is
    raised; the caller believes the task succeeded.
    """
    if _draw(cfg, "nan-mode", key, attempt) < 0.5:
        walker.ln_g[len(walker.ln_g) // 2] = np.nan
    else:
        walker.energies[0] = np.inf


def faults_from_env() -> FaultInjector | None:
    """Build a :class:`FaultInjector` from the environment (or None).

    Unset, empty, ``"0"``, and ``"off"`` all mean "no injection".
    """
    config = FaultConfig.from_env()
    return None if config is None else FaultInjector(config)
