"""The DeepThermo sample→train→propose loop.

Phase 1 (*pretrain*): a cheap local-proposal chain harvests configurations
at the temperatures of interest and the proposal model is trained on them.

Phase 2 (*online*): sampling proceeds with a mixture of local moves and
learned global moves; every ``refresh_interval`` steps the model retrains on
the freshest buffer contents and the proposal caches are invalidated.  The
loop records the DL-move acceptance rate over time — the adaptation signal
the paper tracks (and our E10 ablation sweeps).

Note on adaptive-MCMC correctness: retraining the proposal from the chain's
own history makes the kernel adaptive.  Exactness is recovered by
*diminishing adaptation* (freeze the model after warm-up, which is what
:func:`pretrain_from_chain` + a fixed proposal gives you) — the online loop
is the paper's practical mode and is validated empirically against exact
enumeration in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.proposals.base import Proposal
from repro.proposals.mixture import MixtureProposal
from repro.sampling.metropolis import MetropolisSampler
from repro.training.buffer import ReplayBuffer
from repro.training.trainer import ProposalTrainer
from repro.util.rng import RngFactory

__all__ = ["pretrain_from_chain", "OnlineLoop", "OnlineLoopResult"]


def pretrain_from_chain(
    hamiltonian: Hamiltonian,
    local_proposal: Proposal,
    beta: float,
    initial_config: np.ndarray,
    trainer: ProposalTrainer,
    n_burn_in: int = 5_000,
    n_harvest: int = 200,
    harvest_interval: int = 50,
    train_steps: int = 500,
    seed: int = 0,
) -> dict:
    """Warm-up phase: harvest a local chain, then train the model.

    Returns a dict with the chain acceptance rate, number of harvested
    configurations, and the final training metrics.
    """
    rngs = RngFactory(seed)
    sampler = MetropolisSampler(
        hamiltonian, local_proposal, beta, initial_config, rng=rngs.make("pretrain-chain")
    )
    sampler.run(n_burn_in)

    def harvest(s: MetropolisSampler, _step: int) -> None:
        trainer.buffer.add(s.config)

    sampler.run(n_harvest * harvest_interval, callback=harvest, callback_every=harvest_interval)
    metrics = trainer.train_steps(train_steps)
    return {
        "chain_acceptance": sampler.acceptance_rate,
        "n_harvested": len(trainer.buffer),
        **metrics,
    }


@dataclass
class OnlineLoopResult:
    """Per-round history of the online loop."""

    rounds: int
    dl_acceptance_history: list[float] = field(default_factory=list)
    local_acceptance_history: list[float] = field(default_factory=list)
    loss_history: list[float] = field(default_factory=list)
    energies: list[float] = field(default_factory=list)


class OnlineLoop:
    """Alternate mixture-proposal sampling with model refreshes.

    Parameters
    ----------
    hamiltonian, beta, initial_config
        Target system and temperature.
    local_proposal : Proposal
        The cheap refinement kernel.
    dl_proposal : Proposal
        A learned global proposal (``VAEProposal`` or ``MADEProposal``)
        whose ``model`` the trainer owns.
    trainer : ProposalTrainer
    dl_fraction : float
        Mixture weight of the learned kernel.
    refresh_train_steps : int
        Gradient steps per refresh.
    seed : int
    """

    def __init__(self, hamiltonian: Hamiltonian, beta: float, initial_config: np.ndarray,
                 local_proposal: Proposal, dl_proposal: Proposal, trainer: ProposalTrainer,
                 dl_fraction: float = 0.1, refresh_train_steps: int = 200, seed: int = 0):
        if not 0.0 < dl_fraction < 1.0:
            raise ValueError(f"dl_fraction must be in (0, 1), got {dl_fraction}")
        self.trainer = trainer
        self.dl_proposal = dl_proposal
        self.local_proposal = local_proposal
        self.mixture = MixtureProposal(
            [(local_proposal, 1.0 - dl_fraction), (dl_proposal, dl_fraction)]
        )
        rngs = RngFactory(seed)
        self.sampler = MetropolisSampler(
            hamiltonian, self.mixture, beta, initial_config, rng=rngs.make("online-chain")
        )
        self.refresh_train_steps = int(refresh_train_steps)
        self._dl_attempts = 0
        self._dl_accepts = 0
        self._local_attempts = 0
        self._local_accepts = 0

    def _instrumented_step(self) -> None:
        before = self.mixture.counts.copy()
        accepted = self.sampler.step()
        chosen = int(np.argmax(self.mixture.counts - before))
        if chosen == 1:
            self._dl_attempts += 1
            self._dl_accepts += int(accepted)
        else:
            self._local_attempts += 1
            self._local_accepts += int(accepted)

    def run(self, n_rounds: int, steps_per_round: int, harvest_interval: int = 25) -> OnlineLoopResult:
        """Run the online loop; returns acceptance/loss histories per round."""
        result = OnlineLoopResult(rounds=n_rounds)
        for _round in range(n_rounds):
            self._dl_attempts = self._dl_accepts = 0
            self._local_attempts = self._local_accepts = 0
            for k in range(steps_per_round):
                self._instrumented_step()
                if (k + 1) % harvest_interval == 0:
                    self.trainer.buffer.add(self.sampler.config)
            metrics = self.trainer.train_steps(self.refresh_train_steps)
            # Every DL proposal caches log q(x_current); retraining changes
            # the density, so the cache must be dropped (the contract all
            # DL proposals share — see repro.proposals.cache).
            invalidate = getattr(self.dl_proposal, "invalidate_cache", None)
            if invalidate is not None:
                invalidate()
            result.dl_acceptance_history.append(
                self._dl_accepts / self._dl_attempts if self._dl_attempts else float("nan")
            )
            result.local_acceptance_history.append(
                self._local_accepts / self._local_attempts if self._local_attempts else float("nan")
            )
            result.loss_history.append(metrics["mean_loss"])
            result.energies.append(self.sampler.energy)
        return result
