"""Metropolis–Hastings sampling at fixed inverse temperature.

Acceptance rule (log domain)::

    ln u < −β·ΔE + [log q(x|x') − log q(x'|x)]

The second term is the proposal's ``log_q_ratio``; for the classical
symmetric kernels it is identically 0 and the rule reduces to textbook
Metropolis.  Proposals returning ``None`` (e.g. a rejection-mode DL proposal
that missed the composition manifold) count as rejected steps.

:class:`CanonicalTeam` is the same rule as a mode of the block engine
(:func:`repro.sampling.batched.advance_block`, DESIGN.md §16): K chains,
one signed inverse temperature per row, advanced a block of super-steps at
a time — in C when the compiled super-step is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.proposals.base import Proposal
from repro.sampling.base import register_sampler
from repro.util.rng import BufferedDraws, as_generator

__all__ = ["CanonicalTeam", "MetropolisSampler", "RunStats"]


@dataclass
class RunStats:
    """Counters for one :meth:`MetropolisSampler.run` call."""

    n_steps: int = 0
    n_accepted: int = 0
    n_null: int = 0  # proposal produced no move
    energies: np.ndarray | None = None

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_steps if self.n_steps else 0.0


@register_sampler("metropolis")
class MetropolisSampler:
    """Single-chain Metropolis–Hastings sampler.

    Parameters
    ----------
    hamiltonian : Hamiltonian
    proposal : Proposal
    beta : float
        Inverse temperature (1/energy units of the Hamiltonian).
    config : numpy.ndarray
        Initial configuration (copied).
    rng : seed or Generator
    require_canonical : bool
        When True (default for multi-species models), reject proposals that
        change composition at construction time.
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
        self.beta = float(beta)
        self.config = hamiltonian.validate_config(np.array(config, copy=True))
        self.rng = BufferedDraws(as_generator(rng))
        self.energy = float(hamiltonian.energy(self.config))
        self.total_steps = 0
        self.total_accepted = 0

    # ----------------------------------------------------------------- step

    def step(self) -> bool:
        """One MH step; returns True when the move was accepted."""
        move = self.proposal.propose(
            self.config, self.hamiltonian, self.rng, current_energy=self.energy
        )
        self.total_steps += 1
        if move is None:
            return False
        log_alpha = -self.beta * move.delta_energy + move.log_q_ratio
        if log_alpha >= 0.0 or np.log(self.rng.random()) < log_alpha:
            move.apply(self.config)
            self.energy += move.delta_energy
            self.total_accepted += 1
            return True
        return False

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
            ``callback_every`` steps (configuration harvesting, tracing).
        """
        stats = RunStats()
        trace = [] if record_energy_every > 0 else None
        for k in range(n_steps):
            accepted = self.step()
            stats.n_steps += 1
            stats.n_accepted += int(accepted)
            if trace is not None and (k + 1) % record_energy_every == 0:
                trace.append(self.energy)
            if callback is not None and (k + 1) % callback_every == 0:
                callback(self, k)
        if trace is not None:
            stats.energies = np.asarray(trace)
        return stats

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
        self.energy = fresh
        return drift


class CanonicalTeam:
    """K independent Metropolis chains, row ``r`` at its own signed inverse
    temperature ``beta[r]``, stepped together by the block engine.

    Acceptance is :class:`MetropolisSampler`'s rule, ``ln u < −β_r·ΔE``
    (plus the proposal's log q-ratio on the :meth:`step_batch` path), so a
    row at β < 0 climbs in energy and a row at β = 0 takes every move.  The
    team has no grid, no ln g and no histogram; ``beta`` may be rewritten
    between advance calls (an annealing ramp, a re-signed drive).  Not a
    registered sampler: the energy-range pilot
    (:func:`repro.experiments.common.estimate_energy_range`) and
    :func:`repro.sampling.wang_landau.drive_into_range` drive it.

    Local proposals step through :func:`~repro.sampling.batched.advance_block`
    (in C when the compiled super-step is loaded), proposals without a
    field block (DL, mixtures) through :meth:`step_batch`; a trajectory is a
    function of the seed and the sequence of :meth:`steps` lengths.
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

    def step_batch(self) -> int:
        """One super-step through the proposal's ``propose_many``, then the
        acceptance noise from ``self.rng``.  Rows are independent chains, so
        the commit is one vectorized decision.  Returns accepts."""
        batch = self.proposal.propose_many(
            self.configs, self.hamiltonian, self.rng, current_energies=self.energies
        )
        ln_u = np.log(self.rng.random(self.n_slots))
        log_alpha = -self.beta * batch.delta_energies + batch.log_q_ratios
        accept = (log_alpha >= 0.0) | (ln_u < log_alpha)
        if batch.valid is not None:
            accept &= batch.valid
        acc = np.flatnonzero(accept)
        self.configs[acc[:, None], batch.sites[acc]] = batch.new_values[acc]
        self.energies[acc] += batch.delta_energies[acc]
        self.slot_accepted[acc] += 1
        self._tally(self.n_slots, len(acc))
        return len(acc)

    def _tally(self, steps: int, accepted: int, out_of_grid: int = 0) -> None:
        """Add ``steps`` row steps and their accepts (the block engine's
        write-back; a canonical row has no grid to leave)."""
        self.n_steps += steps
        self.n_accepted += accepted
