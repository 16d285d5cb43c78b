"""Multicanonical production sampling.

After Wang–Landau has converged, ``ln g`` is frozen and a production run
samples with weights ``w(E) ∝ 1/g(E)`` — a flat random walk in energy.  Two
things come out of it:

- a refined density of states: ``ln g_refined = ln g + ln H_prod`` (the
  production histogram corrects residual WL error), and
- *microcanonical* observable averages ``<O>(E)``: any observable recorded
  per energy bin can then be reweighted to arbitrary temperature through
  the density of states (this is how experiment E4 gets Warren–Cowley
  parameters as functions of T from a single run).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.proposals.base import Proposal
from repro.sampling.base import register_sampler
from repro.sampling.batched import BatchedWangLandauSampler
from repro.sampling.binning import EnergyGrid

__all__ = ["MulticanonicalSampler", "MulticanonicalResult"]


@dataclass
class MulticanonicalResult:
    """Production-run output.

    ``observable_means[name][k]`` is the microcanonical average of the
    observable in energy bin ``k`` (NaN where the bin was never visited).
    """

    grid: EnergyGrid
    ln_g: np.ndarray
    histogram: np.ndarray
    observable_means: dict[str, np.ndarray]
    n_steps: int
    acceptance_rate: float

    def refined_ln_g(self) -> np.ndarray:
        """WL estimate corrected by the production histogram."""
        out = np.full(self.grid.n_bins, -np.inf)
        mask = self.histogram > 0
        out[mask] = self.ln_g[mask] + np.log(self.histogram[mask])
        if np.any(mask):
            out[mask] -= out[mask].min()
        return out


@register_sampler("multicanonical")
class MulticanonicalSampler:
    """Fixed-weight flat-energy-walk sampler.

    A driver over a one-row
    :class:`~repro.sampling.batched.BatchedWangLandauSampler` whose ``ln g``
    is the frozen estimate and whose ``ln f`` is 0: the Wang–Landau rule
    with a zero increment is the multicanonical rule bit for bit
    (``x + 0.0 == x``), so the block engine runs it unchanged.

    Parameters
    ----------
    hamiltonian, proposal, grid, config, rng
        As for :class:`~repro.sampling.wang_landau.WangLandauSampler`
        (``config`` is the initial configuration; it must lie inside
        ``grid``).
    ln_g : numpy.ndarray
        Converged Wang–Landau estimate over ``grid`` (not modified).
    observables : dict[str, callable], optional
        ``name -> f(config, energy)`` scalar observables accumulated per
        energy bin.
    """

    def __init__(self, hamiltonian: Hamiltonian, proposal: Proposal, grid: EnergyGrid,
                 ln_g: np.ndarray, config: np.ndarray, rng=None, observables=None):
        ln_g = np.asarray(ln_g, dtype=np.float64)
        if ln_g.shape != (grid.n_bins,):
            raise ValueError(f"ln_g must have shape ({grid.n_bins},), got {ln_g.shape}")
        self.hamiltonian = hamiltonian
        self.proposal = proposal
        self.grid = grid
        self.ln_g = ln_g
        # raises ValueError when the start lies outside the grid
        self.team = BatchedWangLandauSampler(
            hamiltonian=hamiltonian, proposal=proposal, grid=grid,
            initial_config=hamiltonian.validate_config(np.asarray(config)), rng=rng,
        )
        self.team.ln_g[:] = ln_g
        self.team.ln_f = 0.0
        self.observables = dict(observables or {})
        self.histogram = np.zeros(grid.n_bins, dtype=np.int64)
        self._obs_sums = {name: np.zeros(grid.n_bins) for name in self.observables}

    @property
    def config(self) -> np.ndarray:
        """The walker's configuration (a view — copy before mutating)."""
        return self.team.configs[0]

    @property
    def energy(self) -> float:
        return float(self.team.energies[0])

    @property
    def current_bin(self) -> int:
        return int(self.team.bins[0])

    @property
    def n_steps(self) -> int:
        return self.team.n_steps

    @property
    def n_accepted(self) -> int:
        return self.team.n_accepted

    def run(self, n_steps: int, measure_every: int = 1) -> MulticanonicalResult:
        """Run ``n_steps`` steps, measuring every ``measure_every`` steps: the
        team advances ``measure_every`` steps per call and the histogram and
        observables are recorded at each call's end."""
        for _ in range(n_steps // measure_every):
            self.team.steps(measure_every)
            b = self.current_bin
            self.histogram[b] += 1
            for name, fn in self.observables.items():
                self._obs_sums[name][b] += float(fn(self.config, self.energy))
        if n_steps % measure_every:
            self.team.steps(n_steps % measure_every)
        return self.result()

    def result(self) -> MulticanonicalResult:
        means: dict[str, np.ndarray] = {}
        with np.errstate(invalid="ignore", divide="ignore"):
            for name, sums in self._obs_sums.items():
                means[name] = np.where(
                    self.histogram > 0, sums / np.maximum(self.histogram, 1), np.nan
                )
        return MulticanonicalResult(
            grid=self.grid,
            ln_g=self.ln_g.copy(),
            histogram=self.histogram.copy(),
            observable_means=means,
            n_steps=self.n_steps,
            acceptance_rate=self.n_accepted / self.n_steps if self.n_steps else 0.0,
        )
