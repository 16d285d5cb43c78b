"""Metropolis–Hastings sampling at fixed inverse temperature.

Acceptance rule (log domain)::

    ln u < −β·ΔE + [log q(x|x') − log q(x'|x)]

The second term is the proposal's ``log_q_ratio``; for the classical
symmetric kernels it is identically 0 and the rule reduces to textbook
Metropolis.  A candidate with log q = +∞ (a reject-mode VAE slot that
missed the composition manifold) has ``log α = −∞``: a rejected step.

:class:`CanonicalTeam` is this rule as a mode of the block engine
(:func:`repro.sampling.batched.advance_block`, DESIGN.md §16): K chains,
one signed inverse temperature per row, advanced a block of super-steps at
a time — in C when the compiled super-step is loaded.
:class:`MetropolisSampler` is a one-row team, and
:class:`~repro.sampling.tempering.ParallelTempering` a team whose rows are
its β ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.proposals.base import Proposal
from repro.sampling.base import register_sampler
from repro.util.rng import as_generator

__all__ = ["CanonicalTeam", "MetropolisSampler", "RunStats"]


@dataclass
class RunStats:
    """Counters for one :meth:`MetropolisSampler.run` call."""

    n_steps: int = 0
    n_accepted: int = 0
    energies: np.ndarray | None = None

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_steps if self.n_steps else 0.0


@register_sampler("metropolis")
class MetropolisSampler:
    """Single-chain Metropolis–Hastings sampler: a driver over a one-row
    :class:`CanonicalTeam`, so its steps run on the block engine.

    Parameters
    ----------
    hamiltonian : Hamiltonian
    proposal : Proposal
    beta : float
        Inverse temperature (1/energy units of the Hamiltonian), >= 0.
    config : numpy.ndarray
        Initial configuration (copied).
    rng : seed or Generator
    require_canonical : bool
        When True, reject at construction a proposal that changes
        composition.  Default False.

    ``config`` and ``energy`` read the team's row.  A trajectory is a
    function of the seed and of the lengths of the advance calls, which
    :meth:`run` cuts at its record and callback marks.
    """

    def __init__(self, hamiltonian: Hamiltonian, proposal: Proposal, beta: float,
                 config: np.ndarray, rng=None, require_canonical: bool = False):
        if beta < 0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        if require_canonical and not proposal.preserves_composition:
            raise ValueError(
                f"proposal {proposal.name!r} does not preserve composition but "
                "require_canonical=True"
            )
        self.hamiltonian = hamiltonian
        self.proposal = proposal
        self.team = CanonicalTeam(hamiltonian, proposal,
                                  hamiltonian.validate_config(np.asarray(config)),
                                  float(beta), rng)

    @property
    def beta(self) -> float:
        return float(self.team.beta[0])

    @property
    def config(self) -> np.ndarray:
        """The chain's configuration (a view — copy before mutating)."""
        return self.team.configs[0]

    @property
    def energy(self) -> float:
        return float(self.team.energies[0])

    @property
    def total_steps(self) -> int:
        return self.team.n_steps

    @property
    def total_accepted(self) -> int:
        return self.team.n_accepted

    # ----------------------------------------------------------------- step

    def step(self) -> bool:
        """One MH step; returns True when the move was accepted."""
        before = self.team.n_accepted
        self.team.steps(1)
        return self.team.n_accepted > before

    # ------------------------------------------------------------------ run

    def run(self, n_steps: int, record_energy_every: int = 0,
            callback=None, callback_every: int = 1) -> RunStats:
        """Run ``n_steps`` MH steps.

        Parameters
        ----------
        n_steps : int
        record_energy_every : int
            When > 0, record the energy every that many steps into
            ``stats.energies``.
        callback : callable, optional
            ``callback(sampler, step_index)`` invoked every
            ``callback_every`` steps (configuration harvesting, tracing);
            ``step_index`` counts from 0 within this call.

        The team advances in chunks that end at the next record or callback
        mark, so a run without either is one advance call.
        """
        accepted_before = self.team.n_accepted
        marks = []
        if record_energy_every > 0:
            marks.append(record_energy_every)
        if callback is not None:
            marks.append(callback_every)
        trace = []
        done = 0
        while done < n_steps:
            end = min([n_steps] + [(done // m + 1) * m for m in marks])
            self.team.steps(end - done)
            done = end
            if record_energy_every > 0 and done % record_energy_every == 0:
                trace.append(self.energy)
            if callback is not None and done % callback_every == 0:
                callback(self, done - 1)
        return RunStats(
            n_steps=n_steps,
            n_accepted=self.team.n_accepted - accepted_before,
            energies=np.asarray(trace) if record_energy_every > 0 else None,
        )

    def run_sweeps(self, n_sweeps: int, **kwargs) -> RunStats:
        """Run ``n_sweeps`` sweeps (one sweep = ``n_sites`` steps)."""
        return self.run(n_sweeps * self.hamiltonian.n_sites, **kwargs)

    # ----------------------------------------------------------- diagnostics

    @property
    def acceptance_rate(self) -> float:
        """Lifetime acceptance rate of this sampler."""
        return self.total_accepted / self.total_steps if self.total_steps else 0.0

    def resync_energy(self) -> float:
        """Recompute the energy from scratch (guards against drift).

        Returns the absolute drift; the test suite asserts it stays at
        roundoff level over long runs.
        """
        fresh = float(self.hamiltonian.energy(self.config))
        drift = abs(fresh - self.energy)
        self.team.energies[0] = fresh
        return drift


class CanonicalTeam:
    """K independent Metropolis chains, row ``r`` at its own signed inverse
    temperature ``beta[r]``, stepped together by the block engine.

    Acceptance is ``ln u < −β_r·ΔE`` (plus the proposal's log q-ratio for
    global moves), so a row at β < 0 climbs in energy and a
    row at β = 0 takes every move.  The team has no grid, no ln g and no
    histogram; ``beta`` may be rewritten between advance calls (an
    annealing ramp, a re-signed drive).  Not a registered sampler:
    :class:`MetropolisSampler`, :class:`~repro.sampling.tempering.
    ParallelTempering`, the energy-range pilot
    (:func:`repro.experiments.common.estimate_energy_range`) and
    :func:`repro.sampling.wang_landau.drive_into_range` drive it.

    Every proposal steps through :func:`~repro.sampling.batched.
    advance_block` (in C when the compiled super-step is loaded and the
    block is one it takes; a pooled candidate row accepts on
    ``ln u < −β_r·ΔE + Δlog q``); a trajectory is a function of the seed
    and the sequence of :meth:`steps` lengths.
    """

    def __init__(self, hamiltonian: Hamiltonian, proposal: Proposal, configs,
                 beta, rng=None):
        self.hamiltonian = hamiltonian
        self.proposal = proposal
        self.configs = np.array(np.atleast_2d(configs), copy=True)
        for row in self.configs:
            hamiltonian.validate_config(row)
        self.energies = hamiltonian.energies(self.configs)
        self.beta = np.array(np.broadcast_to(beta, self.energies.shape), dtype=np.float64)
        self.rng = as_generator(rng)
        self.n_steps = 0
        self.n_accepted = 0
        self.slot_accepted = np.zeros(self.n_slots, dtype=np.int64)

    @property
    def n_slots(self) -> int:
        """Number of chains (rows) stepped per super-step."""
        return int(self.configs.shape[0])

    def steps(self, n_steps: int) -> None:
        """``n_steps`` super-steps of every row: the one-team block advance."""
        # deferred: batched imports wang_landau, which imports this module
        from repro.sampling.batched import advance_block

        advance_block([self], n_steps, self.hamiltonian)

    def _tally(self, steps: int, accepted: int, out_of_grid: int = 0,
               scored: int = 0) -> None:
        """Add ``steps`` row steps and their accepts (the block engine's
        write-back; a canonical row has no grid to leave, and a canonical
        team keeps no walker counters)."""
        self.n_steps += steps
        self.n_accepted += accepted
