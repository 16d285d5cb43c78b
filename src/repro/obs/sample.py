"""The round record: one immutable view of a REWL round boundary.

:meth:`repro.parallel.rewl.REWLDriver.round_sample` builds a
:class:`RoundSample` once, on a round that some observer's stride selects,
and the convergence ledger, the health monitor and the time-series recorder
all consume that same record.  Observers never read walker teams or the
clock themselves: the record carries the monotonic time of its build (for
intervals and rates) and the wall time (for display only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RoundSample", "WindowSample"]


@dataclass(frozen=True)
class WindowSample:
    """One window's state at a round boundary."""

    window: int
    ln_f: float
    iteration: int
    flatness: float  # min/mean of the visit histogram over visited bins
    fill: float      # fraction of the window's bins visited
    converged: bool
    quarantined: bool
    ln_g: np.ndarray     # ln g shifted to a zero minimum over visited bins
    visited: np.ndarray  # read-only, like ``ln_g``

    def row(self) -> dict:
        """The JSON row heartbeats and ``/campaign`` publish."""
        return {
            "window": self.window,
            "ln_f": self.ln_f,
            "iteration": self.iteration,
            "flatness": round(self.flatness, 6),
            "fill": round(self.fill, 6),
            "converged": self.converged,
            "quarantined": self.quarantined,
        }


@dataclass(frozen=True)
class RoundSample:
    """Everything a round observer reads, taken once per sampled round.

    ``exchange_attempts``/``exchange_accepts`` are cumulative per adjacent
    window pair, ``retries`` the campaign's task-retry total, ``budget`` and
    ``dispositions`` the supervisor's view (None/empty without one), and
    ``eta`` the convergence ledger's projection (None without a ledger or
    before it has history).
    """

    round: int
    mono: float  # time.monotonic() at the build: intervals and rates
    wall: float  # time.time() at the build: display only
    steps: int
    windows: tuple[WindowSample, ...]
    exchange_attempts: tuple[int, ...]
    exchange_accepts: tuple[int, ...]
    retries: int = 0
    budget: dict | None = None
    dispositions: tuple[dict, ...] = ()
    degraded: bool = False
    eta: dict | None = None

    @property
    def converged_windows(self) -> int:
        return sum(w.converged for w in self.windows)

    @property
    def quarantined_windows(self) -> int:
        return sum(w.quarantined for w in self.windows)

    def steps_per_s(self, since: "RoundSample | None") -> float | None:
        """Walker throughput between ``since`` and this record, or None
        when there is no earlier record, no elapsed time or no new step."""
        if since is None:
            return None
        elapsed = self.mono - since.mono
        if elapsed <= 0 or self.steps <= since.steps:
            return None
        return (self.steps - since.steps) / elapsed
