"""Numerical guard rails for flat-histogram walker state.

A multi-day campaign can be poisoned *silently*: a bad kernel, a cosmic-ray
bit flip survived by ECC-less memory, or an injected ``nan`` fault leaves a
non-finite ``ln g`` entry or an impossible histogram, and every subsequent
acceptance decision — and the final stitched DoS — is garbage.  Guards make
corruption *loud and local*: :func:`check_team` inspects one window's walker
team at a super-step boundary (or a checkpoint on restore) and returns a
list of violation strings, and the :class:`GuardPolicy` decides what the
campaign supervisor does about them:

- ``strict``      — raise :class:`GuardViolation` (abort the campaign),
- ``rollback``    — restore the window's last guard-clean snapshot, at most
  ``max_rollbacks`` consecutive times, then abort,
- ``quarantine``  — like ``rollback``, but exhaustion removes the window
  from the campaign instead of aborting (see
  :class:`repro.resilience.supervisor.CampaignSupervisor`).

Checks are pure reads over walker state (``ln g`` / histogram / energy /
bin indices / ``ln f``), draw no random numbers and mutate nothing, so a
guarded run that never trips is bit-identical to an unguarded one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_integer

__all__ = [
    "GUARD_MODES",
    "GuardPolicy",
    "GuardViolation",
    "check_team",
    "check_walker",
]

#: Escalation modes, mildest response last.
GUARD_MODES = ("strict", "rollback", "quarantine")

#: Visit counts past this are treated as histogram overflow — far beyond any
#: real campaign (2^62 steps into one bin) but short of int64 wraparound.
HISTOGRAM_LIMIT = np.int64(2) ** 62


class GuardViolation(RuntimeError):
    """Walker state failed its numerical guard checks (strict/exhausted)."""


@dataclass(frozen=True)
class GuardPolicy:
    """What to validate at super-step boundaries, and how to respond.

    ``max_rollbacks`` bounds *consecutive* rollbacks per window: a clean
    guarded round resets the streak, so transient corruption (one bad
    round) is absorbed while persistent corruption escalates.
    ``snapshot_interval`` is the cadence (in guarded rounds) of the
    in-memory last-good snapshots rollback restores from.
    """

    mode: str = "quarantine"
    max_rollbacks: int = 2
    snapshot_interval: int = 1
    check_flatness: bool = True

    def __post_init__(self):
        if self.mode not in GUARD_MODES:
            raise ValueError(
                f"unknown guard mode {self.mode!r}; expected one of {GUARD_MODES}"
            )
        check_integer("max_rollbacks", self.max_rollbacks, minimum=0)
        check_integer("snapshot_interval", self.snapshot_interval, minimum=1)


def _finite(arr: np.ndarray) -> bool:
    return bool(np.isfinite(arr).all())


def check_walker(walker, last_ln_f: float | None = None) -> list[str]:
    """Violation strings for one window team (empty = healthy).

    ``walker`` is a :class:`~repro.sampling.batched.BatchedWangLandauSampler`
    or anything shaped like one: 1-D ``ln_g``, ``histogram`` and ``visited``
    over the window grid, per-slot ``energies`` and ``bins`` arrays.

    ``last_ln_f`` enables the monotone-sanity check: the modification
    factor can only shrink between checks (halving / 1-over-t schedules),
    so an ln f that *grew* means the walker state was scrambled.
    """
    out: list[str] = []
    n_bins = walker.grid.n_bins
    ln_g = np.asarray(walker.ln_g)
    if ln_g.shape != (n_bins,):
        out.append(f"ln_g shape {ln_g.shape} != ({n_bins},)")
    elif not _finite(ln_g):
        bad = int(np.flatnonzero(~np.isfinite(ln_g))[0])
        out.append(f"non-finite ln_g (first at bin {bad})")
    hist = np.asarray(walker.histogram)
    if hist.shape != (n_bins,):
        out.append(f"histogram shape {hist.shape} != ({n_bins},)")
    else:
        if not _finite(hist.astype(np.float64)):
            out.append("non-finite histogram")
        elif (hist < 0).any():
            out.append("negative histogram count")
        elif (hist >= HISTOGRAM_LIMIT).any():
            out.append("histogram overflow")
    ln_f = float(walker.ln_f)
    if not np.isfinite(ln_f) or ln_f <= 0.0:
        out.append(f"ln_f {ln_f!r} is not a positive finite number")
    elif last_ln_f is not None and ln_f > last_ln_f * (1.0 + 1e-12):
        out.append(f"ln_f grew from {last_ln_f:.6g} to {ln_f:.6g}")
    if not _finite(np.asarray(walker.energies, dtype=np.float64)):
        out.append("non-finite walker energy")
    bins = np.asarray(walker.bins)
    if (bins < 0).any() or (bins >= n_bins).any():
        out.append(f"walker bin outside [0, {n_bins})")
    return out


def check_team(team, last_ln_f: float | None = None) -> list[str]:
    """Violations of one ``driver.walkers[w]`` entry: a one-element list
    holding the window's team."""
    (walker,) = team
    return check_walker(walker, last_ln_f=last_ln_f)
