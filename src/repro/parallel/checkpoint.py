"""Crash-consistent checkpoint/restore for long REWL runs.

Production flat-histogram runs are days long; the paper's framework (like
any HPC application) must survive job-time limits and node failures.  A
checkpoint captures every piece of driver state that evolves — walkers
(configurations, ln g, histograms, RNG streams), window convergence flags,
exchange statistics, and the driver's own RNG — so a restored run continues
*bit-identically* (tested in ``tests/test_checkpoint.py``).

Crash consistency (format version 2):

- **atomic writes** — the blob is written to a same-directory ``.tmp``
  file, flushed and fsynced, then moved into place with ``os.replace``
  (atomic on POSIX), so a process killed mid-save never leaves a torn file
  at the checkpoint path;
- **integrity check** — the blob is framed ``MAGIC | version | SHA-256 |
  payload``; a flipped bit or truncated tail fails the digest check on load
  with a clear ``ValueError`` instead of unpickling garbage;
- **snapshot rotation** — each save first rotates the existing snapshot to
  ``<name>.prev``, and :func:`load_latest_checkpoint` falls back to it when
  the primary is missing or unreadable;
- **chaos hooks** — checkpoint writes consult the active
  :class:`repro.faults.FaultInjector` (``corrupt`` probability), which can
  flip a payload byte or kill the save between tmp write and rename; both
  paths are recovered by the integrity check + rotation;
- **logical validation** — SHA-256 only proves the bytes are the bytes
  that were written; it cannot catch *bad values written before the
  crash* (a NaN ln g poisoned in memory and then faithfully persisted).
  Restores therefore run the :mod:`repro.resilience` numerical guards
  over every window team before any driver state is touched, and a
  logically corrupt snapshot falls back to ``.prev`` like a torn one.

A checkpoint holds one batched walker team per window; files written by
``backend="fused"`` and ``backend="shm"`` runs load into either backend.
Version-1 raw pickles and files holding scalar walkers are rejected.

The proposal factory is deliberately not serialized (factories are often
closures over live models); the caller reconstructs the driver with the
same arguments and then restores into it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.faults import FaultInjector, InjectedCrash, faults_from_env
from repro.kernels import native
from repro.sampling.batched import BatchedWangLandauSampler

if TYPE_CHECKING:  # avoid a circular import; rewl imports save_checkpoint
    from repro.parallel.rewl import REWLDriver

__all__ = [
    "CHECKPOINT_VERSION",
    "load_checkpoint",
    "load_latest_checkpoint",
    "maybe_resume",
    "previous_checkpoint_path",
    "save_checkpoint",
]

CHECKPOINT_VERSION = 2
_MAGIC = b"REWLCKPT"
_HEADER = struct.Struct("<8sI32s")  # magic, version, sha256(payload)


def previous_checkpoint_path(path) -> Path:
    """Rotation slot holding the snapshot before the latest one."""
    path = Path(path)
    return path.with_name(path.name + ".prev")


def save_checkpoint(driver: "REWLDriver", path, keep_previous: bool = True,
                    faults: FaultInjector | None = None) -> Path:
    """Atomically write the driver's evolving state to ``path``.

    The existing snapshot (if any) is rotated to ``<name>.prev`` first when
    ``keep_previous`` is set, so there is always at most one write in flight
    and at least one intact snapshot on disk.
    """
    path = Path(path)
    state = {
        "version": CHECKPOINT_VERSION,
        "n_windows": len(driver.windows),
        "walkers_per_window": driver.cfg.walkers_per_window,
        "n_sites": driver.hamiltonian.n_sites,
        "grid_n_bins": driver.grid.n_bins,
        # Metadata only (results do not depend on it): which implementation
        # of the super-step the saving process ran.
        "superstep": native.describe(),
        "walkers": driver.walkers,
        "window_converged": list(driver.window_converged),
        "exchange_attempts": driver.exchange_attempts,
        "exchange_accepts": driver.exchange_accepts,
        "rounds": driver.rounds,
        "exchange_rng": driver._exchange_rng,
        "task_retries": driver.task_retries,
        # Convergence-ledger diagnostics and the health monitor's heartbeat
        # baseline ride along so --resume continues them where a straight
        # run would be; None when the observer is disabled.
        "convergence": (
            driver.convergence.state_dict()
            if driver.convergence is not None else None
        ),
        "health": (
            driver.health.state_dict() if driver.health is not None else None
        ),
        # Quarantine flags + supervisor ledger: a resumed degraded campaign
        # keeps its dispositions (rollback snapshots are re-taken live).
        "window_quarantined": list(driver.window_quarantined),
        "resilience": (
            driver.supervisor.state_dict()
            if driver.supervisor is not None else None
        ),
    }
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).digest()

    faults = faults if faults is not None else faults_from_env()
    action = faults.decide_checkpoint(driver.rounds) if faults is not None else None
    if action == "corrupt":
        # Simulated storage corruption: the digest is of the *intended*
        # payload, so the flipped byte is caught on load.
        payload = bytearray(payload)
        payload[len(payload) // 2] ^= 0xFF
        payload = bytes(payload)

    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as f:
        f.write(_HEADER.pack(_MAGIC, CHECKPOINT_VERSION, digest))
        f.write(payload)
        f.flush()
        os.fsync(f.fileno())
    if action == "crash":
        # Simulated death between write and publish: the tmp file is
        # abandoned and the previous snapshot at ``path`` stays intact.
        raise InjectedCrash(f"injected crash before checkpoint rename ({path})")
    if keep_previous and path.exists():
        os.replace(path, previous_checkpoint_path(path))
    os.replace(tmp, path)
    driver.obs.metrics.inc("checkpoint.saved")
    if driver.obs.enabled:
        driver.obs.emit("checkpoint_saved", path=str(path), rounds=driver.rounds)
    return path


def _read_state(path: Path) -> dict:
    """Read + verify one checkpoint file; raise ``ValueError`` on any damage."""
    data = path.read_bytes()
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError(
            f"checkpoint {path} is not readable: no {_MAGIC.decode()} header "
            f"(version-1 raw pickles are not supported)"
        )
    if len(data) < _HEADER.size:
        raise ValueError(f"checkpoint {path} is truncated (incomplete header)")
    _magic, version, digest = _HEADER.unpack_from(data)
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {version} != {CHECKPOINT_VERSION} ({path})"
        )
    payload = data[_HEADER.size:]
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError(
            f"checkpoint {path} failed its integrity check "
            f"(truncated or corrupt payload)"
        )
    return pickle.loads(payload)


def load_checkpoint(driver: "REWLDriver", path) -> "REWLDriver":
    """Restore state saved by :func:`save_checkpoint` into ``driver``.

    The driver must have been constructed with a *compatible* setup (same
    window/walker counts, grid size, and system size); mismatches — and
    corrupt or truncated files — raise ``ValueError`` before any state is
    touched.
    """
    path = Path(path)
    state = _read_state(path)
    checks = [
        ("n_windows", len(driver.windows)),
        ("n_sites", driver.hamiltonian.n_sites),
        ("grid_n_bins", driver.grid.n_bins),
    ]
    for key, current in checks:
        if state[key] != current:
            raise ValueError(
                f"checkpoint mismatch: {key} is {state[key]} in the file but "
                f"{current} in the driver"
            )
    # The slot count is read off the teams themselves: the header field
    # counted team objects (always 1) in files written before it recorded
    # slots.
    k = driver.cfg.walkers_per_window
    for w, team in enumerate(state["walkers"]):
        if len(team) != 1 or not isinstance(team[0], BatchedWangLandauSampler):
            raise ValueError(
                f"checkpoint {path}: window {w} holds {len(team)} scalar "
                f"walker(s), not one batched team; it cannot be restored"
            )
        if team[0].n_slots != k:
            raise ValueError(
                f"checkpoint mismatch: walkers_per_window is "
                f"{team[0].n_slots} in the file but {k} in the driver"
            )
    # Logical validation (the sha256 frame already proved the bytes are
    # what was written — now prove the *values* are sane): every restored
    # walker must pass the numerical guards before the driver is mutated.
    from repro.resilience.guards import check_team

    problems = [
        f"window {w}: {violation}"
        for w, team in enumerate(state["walkers"])
        for violation in check_team(team)
    ]
    if problems:
        raise ValueError(
            f"checkpoint {path} failed logical validation: "
            + "; ".join(problems[:4])
            + (f" (+{len(problems) - 4} more)" if len(problems) > 4 else "")
        )
    n_pairs = len(driver.windows) - 1
    attempts = np.asarray(state["exchange_attempts"])
    accepts = np.asarray(state["exchange_accepts"])
    if attempts.shape[0] != n_pairs:
        raise ValueError(
            f"checkpoint mismatch: exchange statistics cover "
            f"{attempts.shape[0]} window pairs but the driver has {n_pairs}"
        )
    driver.walkers = state["walkers"]
    driver.window_converged = list(state["window_converged"])
    driver.exchange_attempts = attempts
    driver.exchange_accepts = accepts
    driver.rounds = state["rounds"]
    driver._exchange_rng = state["exchange_rng"]
    driver.task_retries = state.get("task_retries", 0)
    # _retag_window re-derives each team's window tag and, under shm,
    # rebinds the restored team into the shared campaign arrays.
    for w in range(len(driver.walkers)):
        driver._retag_window(w)
    # Observer and supervisor state is optional on both sides: files that
    # predate an observer, or runs that do not attach it, skip it.
    for observer, key in ((driver.convergence, "convergence"),
                          (driver.health, "health")):
        if observer is not None and state.get(key) is not None:
            observer.load_state(state[key])
    driver.window_quarantined = list(
        state.get("window_quarantined", [False] * len(driver.windows))
    )
    if driver.supervisor is not None and state.get("resilience") is not None:
        driver.supervisor.load_state_dict(state["resilience"])
    driver.obs.metrics.inc("checkpoint.restored")
    if driver.obs.enabled:
        driver.obs.emit("checkpoint_restored", path=str(path), rounds=driver.rounds)
    return driver


def load_latest_checkpoint(driver: "REWLDriver", path) -> Path:
    """Restore the newest *loadable* snapshot: ``path``, else ``path.prev``.

    Returns the path actually restored.  A damaged primary (torn write on a
    dying node, bit rot) falls back to the rotated previous snapshot with a
    ``checkpoint_fallback`` event; if nothing loads, raises
    ``FileNotFoundError`` listing each candidate's failure.
    """
    path = Path(path)
    candidates = [path, previous_checkpoint_path(path)]
    failures = []
    for candidate in candidates:
        if not candidate.exists():
            failures.append(f"{candidate}: not found")
            continue
        try:
            load_checkpoint(driver, candidate)
        except ValueError as exc:
            failures.append(f"{candidate}: {exc}")
            continue
        if candidate != path and driver.obs.enabled:
            driver.obs.emit("checkpoint_fallback", path=str(candidate),
                            primary=str(path),
                            reason=failures[0] if failures else "")
        return candidate
    raise FileNotFoundError(
        "no loadable checkpoint: " + "; ".join(failures)
    )


def maybe_resume(driver: "REWLDriver", path) -> bool:
    """Best-effort auto-resume: restore the latest good snapshot if one exists.

    Returns True when the driver was restored.  Unlike
    :func:`load_latest_checkpoint`, a completely unusable checkpoint set
    (all candidates damaged) emits a ``checkpoint_resume_failed`` event and
    returns False — the campaign restarts from scratch rather than dying.
    """
    path = Path(path)
    if not path.exists() and not previous_checkpoint_path(path).exists():
        return False
    try:
        load_latest_checkpoint(driver, path)
        return True
    except (FileNotFoundError, ValueError) as exc:
        if driver.obs.enabled:
            driver.obs.emit("checkpoint_resume_failed", path=str(path),
                            error=f"{type(exc).__name__}: {exc}")
        return False
