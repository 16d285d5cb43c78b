"""Wang–Landau flat-histogram sampling.

Estimates ``ln g(E)`` over an :class:`~repro.sampling.binning.EnergyGrid` by
biasing acceptance with the running estimate::

    ln u < ln g(E) − ln g(E') + log_q_ratio

and incrementing ``ln g`` at the visited bin by the modification factor
``ln f``.  When the visit histogram is flat (min ≥ flatness·mean over the
reachable bins), ``ln f`` is halved and the histogram reset; the run
converges when ``ln f ≤ ln_f_final``.  The ``"one_over_t"`` schedule caps
``ln f`` at ``n_bins/steps`` once halving would undershoot it, which removes
the saturation error of plain halving (Belardinelli & Pereyra 2007).

Moves landing outside the grid are rejected (standard windowed WL), and the
*current* bin is updated on every step whether or not the move is accepted —
both details are required for convergence to the true density of states.

Reachability: bins never visited (gaps in a discrete spectrum, or windows
overlapping forbidden energies) are excluded from the flatness test once the
run has seen at least one flat check; a bin discovered later simply joins
the reachable set.

This module holds the tuning, the results and the walker drive; the
samplers — :class:`~repro.sampling.batched.WangLandauSampler` (one walker)
and :class:`~repro.sampling.batched.BatchedWangLandauSampler` (a team) —
step on the block engine in :mod:`repro.sampling.batched`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.proposals.base import Proposal
from repro.sampling.binning import EnergyGrid
from repro.sampling.metropolis import CanonicalTeam
from repro.util.rng import as_generator

__all__ = [
    "WLConfig",
    "WangLandauResult",
    "WalkerCounters",
    "drive_into_range",
]


@dataclass(frozen=True)
class WLConfig:
    """Tuning knobs for Wang-Landau sampling (mirrors ``REWLConfig``).

    Passed as the keyword-only ``config=`` of the Wang–Landau samplers in
    :mod:`repro.sampling.batched` — the one way to tune them; derive
    variants with ``dataclasses.replace``.

    ``batch_size`` is the number of walkers a team steps per super-step
    against a shared ln g, when its start is one configuration: 1 (default)
    is a single walker.
    """

    ln_f_init: float = 1.0
    ln_f_final: float = 1e-6
    flatness: float = 0.8
    check_interval: int | None = None
    schedule: str = "halving"
    max_steps: int = 50_000_000
    batch_size: int = 1

    def __post_init__(self):
        if self.schedule not in ("halving", "one_over_t"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if not 0.0 < self.flatness < 1.0:
            raise ValueError(f"flatness must be in (0, 1), got {self.flatness}")
        if not 0.0 < self.ln_f_final < self.ln_f_init:
            raise ValueError(
                f"need 0 < ln_f_final < ln_f_init, got "
                f"{self.ln_f_final}, {self.ln_f_init}"
            )
        if self.check_interval is not None and int(self.check_interval) < 1:
            raise ValueError(f"check_interval must be >= 1, got {self.check_interval}")
        if int(self.batch_size) < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if int(self.max_steps) < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


def _check_wl_config(owner: str, config) -> WLConfig:
    """``config`` itself when it is a :class:`WLConfig`, else ``TypeError``."""
    if not isinstance(config, WLConfig):
        # Pre-redesign name: ``config`` was the initial configuration array.
        raise TypeError(
            f"{owner}(config=...) takes a WLConfig; pass the initial "
            "configuration array as initial_config="
        )
    return config


#: Inverse temperature of :func:`drive_into_range` (1/energy units): large,
#: so a move away from the window is all but never taken; finite, so a move
#: with ΔE = 0 has log α = 0 and is taken, and the walk diffuses on plateaus.
_DRIVE_BETA = 1e6

#: Super-steps between two containment checks of :func:`drive_into_range`.
_DRIVE_BLOCK = 16


def drive_into_range(hamiltonian: Hamiltonian, proposal: Proposal, grid: EnergyGrid,
                     config: np.ndarray, rng=None, max_steps: int = 1_000_000) -> np.ndarray:
    """Steer configurations until their energies lie inside ``grid``.

    ``config`` is one configuration ``(n_sites,)`` or a batch ``(B,
    n_sites)``; a steered copy of the same shape is returned.  The rows
    outside the window are one
    :class:`~repro.sampling.metropolis.CanonicalTeam` on the block engine:
    a near-zero-temperature quench toward the window, at ``+_DRIVE_BETA``
    for a row above it and ``−_DRIVE_BETA`` for a row below (ties
    accepted).  The team advances ``_DRIVE_BLOCK`` steps at a time; between
    blocks each row's energy is recomputed from its configuration — the
    energy the samplers bin, which can sit ulps across an edge placed on a
    level from the running sum — rows inside are dropped and the rest
    re-signed.  Used to initialize REWL walkers whose window excludes the
    typical energy of a random configuration.

    Raises ``RuntimeError`` when a row is still outside after ``max_steps``
    steps — e.g. a quench stalled in a metastable state, such as a striped
    Ising domain.
    """
    rng = as_generator(rng)
    out = np.array(config, copy=True)
    rows = np.atleast_2d(out)  # a view: steering rows steers out
    live = np.arange(rows.shape[0])
    done = 0
    while True:
        energies = hamiltonian.energies(rows[live])
        outside = grid.index_array(energies) < 0
        live, energies = live[outside], energies[outside]
        if not len(live):
            return out
        if done >= max_steps:
            raise RuntimeError(
                f"could not reach energy window [{grid.e_min}, {grid.e_max}] in "
                f"{max_steps} steps ({len(live)} row(s) outside, one at "
                f"energy {energies[0]:.6g})"
            )
        beta = np.where(energies > grid.e_max, _DRIVE_BETA, -_DRIVE_BETA)
        team = CanonicalTeam(hamiltonian, proposal, rows[live], beta, rng)
        n = min(_DRIVE_BLOCK, max_steps - done)
        team.steps(n)
        rows[live] = team.configs
        done += n


@dataclass
class WalkerCounters:
    """Per-walker event totals, kept as plain integers in the step loop.

    These are the operational statistics the paper (and the flat-histogram
    parallelization literature) reasons about; they are surfaced on
    :class:`WangLandauResult` and on REWL walker snapshots rather than being
    discarded at the end of a run.  Counting never touches ``ln_g`` or RNG
    state, so instrumented runs stay bit-identical.
    """

    proposals: int = 0
    accepted: int = 0
    out_of_grid: int = 0
    flat_checks_passed: int = 0
    flat_checks_failed: int = 0
    exchange_attempts: int = 0
    exchange_accepts: int = 0
    #: rows whose current log q a pooled block scored (DESIGN.md §16)
    log_q_scored: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "proposals": self.proposals,
            "accepted": self.accepted,
            "out_of_grid": self.out_of_grid,
            "flat_checks_passed": self.flat_checks_passed,
            "flat_checks_failed": self.flat_checks_failed,
            "exchange_attempts": self.exchange_attempts,
            "exchange_accepts": self.exchange_accepts,
            "log_q_scored": self.log_q_scored,
        }


@dataclass
class WangLandauResult:
    """Outcome of a Wang–Landau run.

    ``ln_g`` is *relative* (shifted so its minimum over visited bins is 0);
    absolute normalization — e.g. pinning the total state count to
    ``n_species^n_sites`` — is applied by :mod:`repro.dos`.
    """

    grid: EnergyGrid
    ln_g: np.ndarray
    histogram: np.ndarray
    visited: np.ndarray
    converged: bool
    n_steps: int
    n_iterations: int
    final_ln_f: float
    acceptance_rate: float
    iteration_steps: list[int] = field(default_factory=list)
    counters: WalkerCounters = field(default_factory=WalkerCounters)

    def masked_ln_g(self) -> np.ndarray:
        """ln g with unvisited bins set to −inf."""
        out = np.where(self.visited, self.ln_g, -np.inf)
        if np.any(self.visited):
            out = out - out[self.visited].min()
        return out
