"""Parallel tempering (replica-exchange Metropolis).

Runs one Metropolis chain per inverse temperature — the rows of one
block-engine team — and periodically attempts configuration exchanges
between adjacent temperatures with the exact replica-exchange rule::

    ln u < (β_i − β_j)(E_i − E_j)

Even/odd pair alternation avoids exchange deadlock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.proposals.base import Proposal
from repro.sampling.metropolis import CanonicalTeam
from repro.sampling.base import register_sampler
from repro.util.rng import RngFactory

__all__ = ["ParallelTempering", "TemperingResult"]


@dataclass
class TemperingResult:
    """Per-replica traces and exchange statistics."""

    betas: np.ndarray
    energies: np.ndarray  # (n_records, n_replicas)
    exchange_attempts: np.ndarray  # per adjacent pair
    exchange_accepts: np.ndarray
    acceptance_rates: np.ndarray  # per replica (within-chain)

    @property
    def exchange_rates(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                self.exchange_attempts > 0,
                self.exchange_accepts / np.maximum(self.exchange_attempts, 1),
                np.nan,
            )


@register_sampler("tempering")
class ParallelTempering:
    """Replica-exchange Metropolis over a β ladder.

    The replicas are the rows of one
    :class:`~repro.sampling.metropolis.CanonicalTeam`, row ``r`` at
    ``betas[r]``; an exchange swaps two rows' configurations and energies
    while each β stays with its row.

    Parameters
    ----------
    hamiltonian : Hamiltonian
    proposal : Proposal
        One proposal for the whole ladder (it proposes for every row).
    betas : array_like
        Inverse-temperature ladder, each >= 0 (any order; stored as given).
    configs : array_like, shape (n_replicas, n_sites)
        Initial configurations.
    seed : int
        Root seed of the team's stream and of the exchange noise.
    """

    def __init__(self, hamiltonian: Hamiltonian, proposal: Proposal, betas, configs,
                 seed=0):
        self.betas = np.asarray(betas, dtype=np.float64)
        if self.betas.ndim != 1 or len(self.betas) < 2:
            raise ValueError("betas must be a 1-D ladder with at least 2 entries")
        if (self.betas < 0).any():
            raise ValueError(f"betas must be >= 0, got {self.betas}")
        configs = np.asarray(configs)
        if configs.shape != (len(self.betas), hamiltonian.n_sites):
            raise ValueError(
                f"configs must have shape ({len(self.betas)}, {hamiltonian.n_sites}), "
                f"got {configs.shape}"
            )
        factory = RngFactory(seed)
        self.team = CanonicalTeam(hamiltonian, proposal, configs, self.betas,
                                  rng=factory.make("pt-team"))
        # Exchange randomness is keyed by (round, lower replica), so a
        # decision does not depend on which other pairs were attempted.
        self._rng_factory = factory
        self.exchange_attempts = np.zeros(len(self.betas) - 1, dtype=np.int64)
        self.exchange_accepts = np.zeros(len(self.betas) - 1, dtype=np.int64)
        self._round = 0

    @property
    def n_replicas(self) -> int:
        return self.team.n_slots

    def exchange_sweep(self) -> None:
        """Attempt exchanges on alternating even/odd adjacent pairs."""
        start = self._round % 2
        round_k = self._round
        self._round += 1
        configs, energies = self.team.configs, self.team.energies
        for left in range(start, self.n_replicas - 1, 2):
            pair = [left, left + 1]
            self.exchange_attempts[left] += 1
            log_alpha = (self.betas[left] - self.betas[left + 1]) * (
                energies[left] - energies[left + 1])
            u = self._rng_factory.make("pt-pair", round_k * 1_000_003 + left).random()
            if log_alpha >= 0.0 or np.log(u) < log_alpha:
                configs[pair] = configs[pair[::-1]]
                energies[pair] = energies[pair[::-1]]
                self.exchange_accepts[left] += 1

    def run(self, n_rounds: int, steps_per_round: int, record: bool = True) -> TemperingResult:
        """Alternate ``steps_per_round`` MH steps per replica with exchanges."""
        records = []
        for _ in range(n_rounds):
            self.team.steps(steps_per_round)
            self.exchange_sweep()
            if record:
                records.append(self.team.energies.copy())
        steps_per_rung = self.team.n_steps // self.n_replicas
        return TemperingResult(
            betas=self.betas.copy(),
            energies=np.asarray(records) if records else np.empty((0, self.n_replicas)),
            exchange_attempts=self.exchange_attempts.copy(),
            exchange_accepts=self.exchange_accepts.copy(),
            acceptance_rates=self.team.slot_accepted / max(1, steps_per_rung),
        )
