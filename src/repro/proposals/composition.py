"""Composition handling for the VAE proposal.

HEA thermodynamics is canonical: species counts are fixed.  The VAE decodes
all sites at once, so its raw samples scatter around the target
composition.  :class:`~repro.proposals.dl_vae.VAEProposal` supports three
modes (MADE needs none of them: it decodes site by site and masks used-up
species, see :class:`~repro.proposals.dl_made.MADEProposal`):

``"free"``
    No handling — for non-conserved models (Ising/Potts flips allowed).

``"reject"``
    Resample until the draw lies exactly on the composition manifold.  This
    is *exact*: the restricted kernel is an independence sampler with density
    ``q(x)/Z_c`` where ``Z_c`` (the model's total mass on the manifold) is a
    constant that cancels in the MH ratio, so using the unrestricted
    ``log q`` is correct.  Failure after ``max_tries`` returns no move (a
    configuration-independent event — reversibility is unaffected).

``"repair"``
    Project the draw onto the manifold by reassigning randomly chosen
    excess-species sites to deficit species.  Cheap and what large-scale
    practice (including the paper's regime) effectively relies on, but the
    MH correction then uses the *pre-repair* density as an approximation of
    the true (repaired) proposal density; the induced sampling bias is
    measured against exact enumeration in ``tests/test_dl_proposals.py``
    and reported in experiment E10.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "repair_composition",
    "composition_counts_rows",
    "first_match_per_row",
    "COMPOSITION_MODES",
]

COMPOSITION_MODES = ("free", "reject", "repair")


def composition_counts_rows(configs: np.ndarray, n_species: int) -> np.ndarray:
    """Species counts per row: ``(..., n_sites) -> (..., n_species)``.

    One flat ``bincount`` with per-row offsets — no Python loop over rows,
    so the batched DL proposals can composition-check a whole candidate
    pool at once.
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

    ``targets`` is the ``(B, n_species)`` per-row target counts.  Returns
    ``(first_index, has_match)``: the column of row ``b``'s first match in
    its T-candidate pool (0 where none), and whether one exists: the
    reject-mode scan of every row at once.
    """
    n_species = targets.shape[-1]
    pool_counts = composition_counts_rows(pool, n_species)  # (B, T, S)
    match = (pool_counts == np.asarray(targets)[:, None, :]).all(axis=-1)
    has = match.any(axis=1)
    return np.argmax(match, axis=1), has


def repair_composition(config: np.ndarray, target_counts: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Project ``config`` to the target composition (returns a new array).

    Repeatedly reassigns a uniformly random site of the currently
    most-overrepresented species to the most-underrepresented species.
    Terminates in at most ``sum |counts − target|`` reassignments.
    """
    target = np.asarray(target_counts, dtype=np.int64)
    out = np.array(config, copy=True)
    counts = np.bincount(out.astype(np.int64), minlength=len(target))
    excess = counts - target
    if excess.sum() != 0:
        raise ValueError(
            f"target counts sum to {target.sum()} but configuration has "
            f"{counts.sum()} sites"
        )
    while np.any(excess != 0):
        over = int(np.argmax(excess))
        under = int(np.argmin(excess))
        candidates = np.nonzero(out == over)[0]
        site = int(candidates[rng.integers(len(candidates))])
        out[site] = under
        excess[over] -= 1
        excess[under] += 1
    return out
