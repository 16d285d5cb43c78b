"""Parallel MC framework (S6).

The paper runs replica-exchange Wang-Landau (REWL) across thousands of GPUs
with MPI, one energy window per unit of parallel work.  Here the same
algorithm runs at laptop scale:

- :func:`make_windows` — overlapping energy-window decomposition,
- :class:`REWLDriver` — one batched walker team per window, synchronized
  Wang-Landau iterations, inter-window configuration exchanges; returns
  per-window pieces ready for DoS stitching (:mod:`repro.dos`).  Teams step
  in process (``backend="fused"``) or on shared-memory worker ranks
  (``backend="shm"``, :mod:`repro.parallel.fused`), bit-identically; under
  :mod:`repro.faults` injection each window retries its advance, so a run
  that survives its faults is bit-identical to the fault-free run.
- :mod:`repro.parallel.comm` — the shared-memory transport under
  ``backend="shm"``: a :class:`ShmWorld` of named shared arrays and rank
  processes, and a :class:`ShmRank` endpoint that maps those arrays and
  sends/receives pickled commands.
- :mod:`repro.parallel.checkpoint` — crash-consistent snapshots (atomic
  tmp+rename writes, SHA-256 integrity framing, ``.prev`` rotation with
  fallback) so interrupted campaigns auto-resume bit-identically.
"""

from repro.parallel.comm import ShmRank, ShmWorld
from repro.parallel.windows import WindowSpec, make_windows, surviving_pairs
from repro.parallel.rewl import (
    BACKENDS,
    REWLDriver,
    REWLConfig,
    REWLResult,
    WalkerSnapshot,
)
from repro.parallel.fused import FusedCampaignState, FusedTeam, ShmEngine
from repro.parallel.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    load_latest_checkpoint,
    maybe_resume,
    previous_checkpoint_path,
    save_checkpoint,
)

__all__ = [
    "ShmRank",
    "ShmWorld",
    "WindowSpec",
    "make_windows",
    "surviving_pairs",
    "BACKENDS",
    "REWLDriver",
    "REWLConfig",
    "REWLResult",
    "WalkerSnapshot",
    "FusedCampaignState",
    "FusedTeam",
    "ShmEngine",
    "CHECKPOINT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "load_latest_checkpoint",
    "maybe_resume",
    "previous_checkpoint_path",
]
