"""VAE global proposal — the paper's deep-learning MC proposal.

Proposes an entire configuration by decoding a prior draw from a
:class:`~repro.nn.models.vae.CategoricalVAE` trained on the walkers'
history (see :mod:`repro.training`).  The model marginal ``q(x)`` is
intractable, so the Metropolis–Hastings correction uses the importance-
weighted estimate ``q̂_S`` (``CategoricalVAE.log_marginal``, the encoder
``r(z|x)`` as importance distribution) — and stays exact, because the
estimate travels with the row it was made for (DESIGN.md §12):

- a candidate ``y`` decoded from ``z′ ~ p(z)`` carries ``q̂_S(y)`` whose
  term 0 uses ``z′`` and whose other ``S − 1`` terms use encoder draws
  ``z ~ r(·|y)``;
- a row that accepts a candidate keeps the candidate's ``q̂``; a row that
  holds none (at block start, or after a local move) is scored with ``S``
  fresh encoder draws from its team's stream.

This is an independence Metropolis–Hastings kernel on the extended target
``π(x)·Π_s r(z_s|x)``: the proposal density of ``(y, z_1..S)`` is
``Π_s r(z_s|y) · q̂_S(y; z)``, so the acceptance ratio is
``π(y)·q̂(x) / (π(x)·q̂(y))``, and redrawing the latents of a row is a Gibbs
step on the same target.  Re-using an old estimate for a configuration seen
before would not be a fresh conditional draw, so there is no content cache.

Candidates depend on nothing in the chain but the composition, so they are
drawn ahead in pools (:class:`~repro.proposals.base.PooledProposal`) and
handed out one per row-step.

Composition.  ``"free"`` decodes the plain model (Ising/Potts).
``"reject"`` (the default, for canonical alloy sampling) gives each pool
slot up to ``max_reject_tries`` decodes and keeps the first that lies on the
rows' composition: the kernel is then the independence sampler of ``Q``
restricted to that manifold, whose normalisation is a constant that cancels
in the ratio.  A slot that never hits is handed out as a copy of an asking
row with log q = +∞, so its log α is −∞ and the engine always rejects it;
whether a slot misses does not depend on the state, so this is exact too.
The pool is keyed on the composition it was drawn for.
"""

from __future__ import annotations

import numpy as np

from repro.lattice.configuration import one_hot
from repro.nn.models.vae import CategoricalVAE
from repro.nn.workspace import Workspace
from repro.proposals.base import PooledProposal
from repro.proposals.cache import CandidatePool
from repro.util.validation import check_integer

__all__ = ["VAEProposal", "composition_counts_rows", "first_match_per_row"]

#: Most decodes one refill round makes, and most rows one pool holds.
_POOL_ROWS = 1024
#: ...the pool capped so that the estimate's float64 logits (three arrays
#: of ``S × n_sites × n_species`` per row) stay within this many bytes.
_POOL_SCRATCH_BYTES = 8 << 20


def composition_counts_rows(configs: np.ndarray, n_species: int) -> np.ndarray:
    """Species counts per row: ``(..., n_sites) -> (..., n_species)``.

    One flat ``bincount`` with per-row offsets — no Python loop over rows,
    so a whole block of decodes is composition-checked at once.
    """
    configs = np.asarray(configs, dtype=np.int64)
    lead_shape = configs.shape[:-1]
    flat = configs.reshape(-1, configs.shape[-1])
    n_rows = flat.shape[0]
    offsets = np.arange(n_rows, dtype=np.int64)[:, None] * n_species
    counts = np.bincount((flat + offsets).ravel(), minlength=n_rows * n_species)
    return counts.reshape(lead_shape + (n_species,))


def first_match_per_row(pool: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First composition-matching candidate per row of a ``(B, T, n)`` pool.

    ``targets`` is the ``(B, n_species)`` per-row target counts (or one row
    for all).  Returns ``(first_index, has_match)``: the column of row
    ``b``'s first match in its T-candidate pool (0 where none), and whether
    one exists.
    """
    n_species = targets.shape[-1]
    pool_counts = composition_counts_rows(pool, n_species)  # (B, T, S)
    match = (pool_counts == np.asarray(targets)[:, None, :]).all(axis=-1)
    has = match.any(axis=1)
    return np.argmax(match, axis=1), has


class VAEProposal(PooledProposal):
    """Independence proposal from a trained VAE, with exact held estimates.

    Parameters
    ----------
    model : CategoricalVAE
    n_marginal_samples : int
        Terms ``S`` of each ``log q̂`` estimate.
    composition : {"reject", "free"}
        See the module docstring.
    max_reject_tries : int
        Decodes per pool slot in ``"reject"`` mode.
    logit_temperature : float
        Decoder broadening (>1 flattens the proposal; see the E10
        sharpening ablation).  Sampling and density evaluation use the same
        value, so the kernel stays exactly defined.
    """

    def __init__(self, model: CategoricalVAE, n_marginal_samples: int = 32,
                 composition: str = "reject", max_reject_tries: int = 64,
                 logit_temperature: float = 1.0):
        if composition not in ("reject", "free"):
            raise ValueError(f"composition must be 'reject' or 'free', got {composition!r}")
        if logit_temperature <= 0:
            raise ValueError(f"logit_temperature must be > 0, got {logit_temperature}")
        self.model = model
        self.n_marginal_samples = check_integer("n_marginal_samples", n_marginal_samples, minimum=1)
        self.composition = composition
        self.max_reject_tries = check_integer("max_reject_tries", max_reject_tries, minimum=1)
        self.logit_temperature = float(logit_temperature)
        self.preserves_composition = composition == "reject"
        self.name = f"vae({composition})"
        self._pool = CandidatePool()
        #: Pooled layer intermediates for encoder/decoder forwards
        #: (semantics-preserving — see :mod:`repro.nn.workspace`).
        self.workspace = Workspace()
        self.model.bind_workspace(self.workspace)

    def _decode(self, n: int, rng) -> tuple:
        return self.model.sample(n, rng, logit_temperature=self.logit_temperature,
                                 return_latent=True)

    def _draw_block(self, configs, counts, rng) -> tuple:
        """One pool block: decodes (in ``"reject"``, rounds of them until
        every slot hit or used its tries), then each hit's ``log q̂``."""
        c = self.model.config
        row_bytes = 3 * 8 * self.n_marginal_samples * c.input_dim
        rows = max(1, min(_POOL_ROWS, _POOL_SCRATCH_BYTES // row_bytes))
        if counts is None:
            candidates, latent = self._decode(rows, rng)
            hit = np.ones(rows, dtype=bool)
        else:
            candidates = np.repeat(configs[:1], rows, axis=0)  # a miss: the asking row
            latent = np.zeros((rows, c.latent_dim))
            hit = np.zeros(rows, dtype=bool)
            used = 0
            while used < self.max_reject_tries and not hit.all():
                miss = np.flatnonzero(~hit)
                tries = min(self.max_reject_tries - used, max(1, _POOL_ROWS // len(miss)))
                drawn, z = self._decode(len(miss) * tries, rng)
                first, has = first_match_per_row(drawn.reshape(len(miss), tries, -1),
                                                 counts[None])
                at = np.flatnonzero(has) * tries + first[has]
                candidates[miss[has]], latent[miss[has]] = drawn[at], z[at]
                hit[miss[has]] = True
                used += tries
        log_q = np.full(rows, np.inf)
        if hit.any():
            log_q[hit] = self.model.log_marginal(
                one_hot(candidates[hit], c.n_species), self.n_marginal_samples, rng,
                logit_temperature=self.logit_temperature, latent=latent[hit])
        return candidates, log_q

    def log_q_current(self, configs: np.ndarray, rng) -> np.ndarray:
        """A fresh ``log q̂`` of each current configuration: ``S`` encoder
        draws per row from ``rng``."""
        return self.model.log_marginal(
            one_hot(configs, self.model.config.n_species), self.n_marginal_samples, rng,
            logit_temperature=self.logit_temperature)
