"""Parallel MC framework (S6).

The paper runs replica-exchange Wang-Landau (REWL) across thousands of GPUs
with MPI.  Here the same algorithm runs at laptop scale over two layers:

- :mod:`repro.parallel.comm` — an MPI-like communicator (mpi4py-shaped API:
  ``send/recv/sendrecv``, ``barrier``, ``bcast``, ``gather``, ``allgather``,
  ``allreduce``) behind a runtime-checkable protocol and a backend registry
  (``comm.get("serial"|"thread"|"shm")``): a serial single-rank backend, a
  threaded SPMD backend, and a zero-copy ``multiprocessing.shared_memory``
  backend whose ndarray messages move through shared segments instead of
  pickles.  The distributed parallel-tempering rank program
  (:mod:`repro.parallel.tempering`) is written against it and asserted
  bit-identical to the serial reference.
- :mod:`repro.parallel.checkpoint` — crash-consistent snapshots (atomic
  tmp+rename writes, SHA-256 integrity framing, ``.prev`` rotation with
  fallback) so interrupted campaigns auto-resume bit-identically.

On top sits the REWL driver:

- :func:`make_windows` — overlapping energy-window decomposition,
- :class:`REWLDriver` — one batched walker team per window, synchronized
  Wang-Landau iterations, inter-window configuration exchanges; returns
  per-window pieces ready for DoS stitching (:mod:`repro.dos`).  Teams step
  in process (``backend="fused"``) or on shared-memory worker ranks
  (``backend="shm"``, :mod:`repro.parallel.fused`), bit-identically; under
  :mod:`repro.faults` injection each window retries its advance, so a run
  that survives its faults is bit-identical to the fault-free run.
"""

from repro.parallel.comm import (
    COMMUNICATORS,
    Communicator,
    SerialCommunicator,
    SharedMemoryCommunicator,
    ShmWorld,
    ThreadCommunicator,
    get as get_communicator,
    register_communicator,
    run_spmd,
)
from repro.parallel.windows import WindowSpec, make_windows, surviving_pairs
from repro.parallel.rewl import (
    BACKENDS,
    REWLDriver,
    REWLConfig,
    REWLResult,
    WalkerSnapshot,
)
from repro.parallel.fused import FusedCampaignState, FusedTeam, ShmEngine
from repro.parallel.tempering import distributed_parallel_tempering
from repro.parallel.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    load_latest_checkpoint,
    maybe_resume,
    previous_checkpoint_path,
    save_checkpoint,
)

__all__ = [
    "COMMUNICATORS",
    "Communicator",
    "SerialCommunicator",
    "SharedMemoryCommunicator",
    "ShmWorld",
    "ThreadCommunicator",
    "get_communicator",
    "register_communicator",
    "run_spmd",
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
    "distributed_parallel_tempering",
    "CHECKPOINT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "load_latest_checkpoint",
    "maybe_resume",
    "previous_checkpoint_path",
]
