"""VAE global proposal — the paper's deep-learning MC proposal.

Proposes an entire configuration by decoding a fresh prior draw from a
:class:`~repro.nn.models.vae.CategoricalVAE` trained online on the walker's
history (see :mod:`repro.training`).  The Metropolis–Hastings correction
uses the IWAE estimate of the model marginal ``log q(x)`` (see
``CategoricalVAE.log_marginal``); the estimator's sample count trades bias
for cost and is swept in the E10 ablation.

Batched inference (:meth:`VAEProposal.propose_many`): a K-walker team draws
its whole candidate pool in one decoder pass, estimates ``log q`` of all
candidates in one IWAE call (``n_marginal_samples`` batched forwards total,
instead of per walker), reuses cached current-configuration scores
(:class:`~repro.proposals.cache.CurrentLogQCache` — rejected steps stop
re-scoring an unchanged configuration), and prices candidates with one
batched full-config energy evaluation.
"""

from __future__ import annotations

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.lattice.configuration import one_hot
from repro.nn.models.vae import CategoricalVAE
from repro.nn.workspace import Workspace
from repro.proposals.base import BatchMove, Proposal
from repro.proposals.cache import CurrentLogQCache
from repro.proposals.composition import (
    COMPOSITION_MODES,
    composition_counts_rows,
    first_match_per_row,
    repair_composition,
)
from repro.util.validation import check_integer

__all__ = ["VAEProposal"]


class VAEProposal(Proposal):
    """Independence-style global proposal from a trained VAE.

    Parameters
    ----------
    model : CategoricalVAE
    n_marginal_samples : int
        Importance samples per ``log q`` estimate.
    composition : {"free", "reject", "repair"}
        See :mod:`repro.proposals.composition`.
    max_reject_tries : int
        Decoded candidates per row in ``"reject"`` mode; a row none of whose
        draws matches the composition comes back invalid (a rejected step).
    """

    is_global = True

    def __init__(self, model: CategoricalVAE, n_marginal_samples: int = 32,
                 composition: str = "repair", max_reject_tries: int = 64,
                 logit_temperature: float = 1.0):
        if composition not in COMPOSITION_MODES:
            raise ValueError(
                f"composition must be one of {COMPOSITION_MODES}, got {composition!r}"
            )
        if logit_temperature <= 0:
            raise ValueError(f"logit_temperature must be > 0, got {logit_temperature}")
        self.model = model
        self.n_marginal_samples = check_integer("n_marginal_samples", n_marginal_samples, minimum=1)
        self.composition = composition
        self.max_reject_tries = check_integer("max_reject_tries", max_reject_tries, minimum=1)
        #: Decoder broadening (>1 flattens the proposal; see the E10
        #: sharpening ablation).  Sampling and density evaluation use the
        #: same value, so the kernel stays exactly defined.
        self.logit_temperature = float(logit_temperature)
        self.preserves_composition = composition != "free"
        self.name = f"vae({composition})"
        # log q(x_current) cache: the current configuration only changes on
        # acceptance, so consecutive proposals reuse the same value (the
        # IWAE estimate is frozen per configuration until then).
        self._logq_cache = CurrentLogQCache()
        #: Pooled layer intermediates for encoder/decoder forwards
        #: (semantics-preserving — see :mod:`repro.nn.workspace`).
        self.workspace = Workspace()
        self.model.bind_workspace(self.workspace)

    def propose_many(self, configs, hamiltonian: Hamiltonian, rng,
                     current_energies=None) -> BatchMove:
        """One decode pass + two IWAE calls + one energy pass for B walkers.

        The candidate pool is ``model.sample(B)`` (``"free"``/``"repair"``)
        or ``model.sample(B·tries)`` chunked ``tries`` per row with
        first-match assignment (``"reject"``).  ``log q`` draws its IWAE
        noise from ``rng`` batch-wise, so a trajectory depends on how rows
        are batched, not only on the seed.
        """
        configs = np.atleast_2d(np.asarray(configs))
        B = configs.shape[0]
        tau = self.logit_temperature
        valid = None

        if self.composition == "free":
            candidates = self.model.sample(B, rng, logit_temperature=tau)
        elif self.composition == "reject":
            tries = self.max_reject_tries
            pool = self.model.sample(B * tries, rng, logit_temperature=tau)
            pool = pool.reshape(B, tries, -1)
            targets = composition_counts_rows(configs, self.model.config.n_species)
            first, has = first_match_per_row(pool, targets)
            candidates = pool[np.arange(B), first]
            if not has.all():
                valid = has
                candidates[~has] = configs[~has]  # no-op rows, never applied
        else:  # repair
            raw = self.model.sample(B, rng, logit_temperature=tau)
            targets = composition_counts_rows(configs, self.model.config.n_species)
            candidates = np.stack([
                repair_composition(raw[b], targets[b], rng) for b in range(B)
            ])

        logq_old = self._log_q_current_many(configs, rng)
        score_rows = np.arange(B) if valid is None else np.nonzero(valid)[0]
        logq_new = np.zeros(B, dtype=np.float64)
        if len(score_rows):
            logq_new[score_rows] = self._log_q_batch(candidates[score_rows], rng)
        if current_energies is None:
            current_energies = hamiltonian.energies(configs)
        delta = hamiltonian.energies(candidates) - np.asarray(current_energies, dtype=np.float64)
        log_q = logq_old - logq_new
        if valid is not None:
            delta[~valid] = 0.0
            log_q[~valid] = 0.0
        return BatchMove.global_update(configs, candidates, delta, log_q, valid=valid)

    # ------------------------------------------------------------- internals

    def _log_q_batch(self, configs: np.ndarray, rng) -> np.ndarray:
        """IWAE ``log q`` of a (R, n_sites) batch in one estimator call."""
        encoded = one_hot(np.atleast_2d(configs), self.model.config.n_species)
        return np.asarray(self.model.log_marginal(
            encoded, n_samples=self.n_marginal_samples, rng=rng,
            logit_temperature=self.logit_temperature,
        ), dtype=np.float64)

    def _log_q_current_many(self, configs: np.ndarray, rng) -> np.ndarray:
        values, missing, keys = self._logq_cache.lookup_many(configs)
        if missing.any():
            fresh = self._log_q_batch(configs[missing], rng)
            self._logq_cache.store_many(keys, missing, values, fresh)
        return values

    def invalidate_cache(self) -> None:
        """Drop cached ``log q`` values (call after retraining the model)."""
        self._logq_cache.invalidate()
