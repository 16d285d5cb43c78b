"""Shared-memory transport of the ``backend="shm"`` campaign engine.

:class:`~repro.parallel.fused.ShmEngine` needs two things from the process
boundary, and this module holds exactly those:

- :class:`ShmWorld` — the controller-owned world: named shared arrays
  (:meth:`ShmWorld.alloc_array`) that every rank maps zero-copy, one inbox
  queue per rank, and the rank processes (:meth:`ShmWorld.spawn`).
  :meth:`ShmWorld.close` terminates the ranks and unlinks every segment; a
  ``weakref`` finalizer does the same for a world dropped unclosed or
  still open at interpreter exit, so a crashed campaign leaks no
  ``/dev/shm`` entry and no rank.
- :class:`ShmRank` — one rank's endpoint: :meth:`~ShmRank.shared_array`
  maps a world array, :meth:`~ShmRank.send` puts a pickled object in
  another rank's inbox, and :meth:`~ShmRank.recv` takes the next message
  from this rank's own inbox as ``(source, obj)``.

Ranks are **forked** from the controller wherever the platform has the
``fork`` start method (``spawn`` elsewhere), so a rank starts warm: it
inherits the imported modules, the loaded native super-step library and
the tables instead of starting an interpreter and importing them again.
The rank body (:func:`_rank_main`) is the same under both start methods
and keeps a spawned rank's contract: the arguments cross as pickled bytes
and are unpickled inside the rank, and the rank runs only the exit handlers
registered inside it — never the controller's.

Bulk data never crosses a pickle: walker state lives in the shared arrays,
and messages carry only commands and small replies.  A receive without a
timeout has no deadline — a worker rank may idle between ``run()`` calls
for as long as its controller likes — but it polls every :data:`_POLL_S`
and exits once its parent process is gone, so a killed controller leaves
no orphaned rank behind.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import pickle
import queue
import weakref
from typing import Any

import numpy as np

__all__ = ["ShmRank", "ShmWorld"]

#: Inbox wait slice: how often the controller, waiting for its ranks'
#: replies, checks that they live, and a waiting worker that its parent
#: does.  Short enough that a death is noticed promptly, long enough not to
#: busy-spin.
_POLL_S = 1.0


def _unlink_segments(names: list[str]) -> None:
    """Best-effort unlink of named segments (finalizer — must not raise)."""
    from multiprocessing import shared_memory

    for name in list(names):
        try:
            seg = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError):
            continue
        try:
            seg.close()
            seg.unlink()
        except (FileNotFoundError, OSError):
            pass
    names.clear()


def _release_world(procs: list, names: list[str]) -> None:
    """Finalizer of a :class:`ShmWorld` never closed: terminate its ranks
    (they wait for commands with no deadline) and unlink its segments."""
    for p in procs:
        if p.is_alive():
            p.terminate()
    _unlink_segments(names)


def _rank_main(target, handle, rank: int, payload: bytes) -> None:
    """Body of every rank process, the same under ``fork`` and ``spawn``.

    A forked rank inherits the controller's exit handlers (its caller's
    clean-up, the world's unlink finalizer) and leaves through
    ``os._exit``, which runs none.  So the rank drops the inherited
    handlers first, unpickles its arguments (objects that register a
    handler when they wake up in another process do so here), and runs the
    handlers registered inside it when ``target`` returns cleanly.
    """
    atexit._clear()
    target(handle, rank, *pickle.loads(payload))
    atexit._run_exitfuncs()


def _attach_segment(name: str):
    """Attach an existing segment without adopting unlink responsibility.

    Python ≤3.11 registers *attached* segments with the resource tracker,
    which would then unlink them when the attaching process exits — pulling
    live segments out from under the other ranks.  Suppressing the
    registration during attach restores the create-side-owns-unlink
    discipline (what 3.13 spells ``track=False``).
    """
    from multiprocessing import resource_tracker, shared_memory

    orig_register = resource_tracker.register

    def _no_shm_register(name_, rtype):
        if rtype != "shared_memory":
            orig_register(name_, rtype)

    resource_tracker.register = _no_shm_register
    try:
        seg = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register
    return seg


class _ShmWorldHandle:
    """Picklable-through-``Process`` descriptor of a :class:`ShmWorld`.

    Carries the inbox queues (inherited through process start) plus the
    segment name, shape and dtype of every shared array; ranks attach by
    name.
    """

    def __init__(self, inboxes, arrays):
        self.inboxes = inboxes
        self.arrays = arrays  # name → (segment name, shape, dtype str)


class ShmWorld:
    """Host-owned lifecycle of a process-based shared-memory world.

    Owns every segment allocated with :meth:`alloc_array` and every rank
    started with :meth:`spawn`.  :meth:`close` terminates still-running
    ranks and unlinks all segments (asserted in
    ``tests/test_shm_lifecycle.py``); a world that is garbage-collected or
    still open at interpreter exit is released the same way.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self.ctx = mp.get_context(method)
        self.inboxes = [self.ctx.Queue() for _ in range(size)]
        self._segments: list = []
        self._segment_names: list[str] = []
        self._arrays: dict[str, tuple[str, tuple, str]] = {}
        self.procs: list = []
        self._spawned: set[int] = set()
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _release_world, self.procs, self._segment_names
        )

    # ------------------------------------------------------------- arrays

    def alloc_array(self, name: str, shape, dtype) -> np.ndarray:
        """Create a named shared array; returns the host's zero-copy view.

        Ranks map the same bytes via :meth:`ShmRank.shared_array`.
        """
        from multiprocessing import shared_memory

        if name in self._arrays:
            raise ValueError(f"shared array {name!r} already allocated")
        shape = tuple(int(s) for s in shape)
        dt = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape)) * dt.itemsize)
        seg = shared_memory.SharedMemory(create=True, size=nbytes)
        self._segments.append(seg)
        self._segment_names.append(seg.name)
        self._arrays[name] = (seg.name, shape, dt.str)
        return np.ndarray(shape, dtype=dt, buffer=seg.buf)

    @property
    def segment_names(self) -> list[str]:
        return list(self._segment_names)

    def handle(self) -> _ShmWorldHandle:
        return _ShmWorldHandle(self.inboxes, dict(self._arrays))

    # ---------------------------------------------------------- lifecycle

    def spawn(self, target, rank: int, *args):
        """Start ``target(handle, rank, *args)`` as a daemon rank process.

        The rank is a direct child of the caller.  ``args`` are pickled
        here and unpickled inside the rank under either start method (see
        :func:`_rank_main`).  Starting a rank again (a respawn) gives it a
        fresh inbox: a predecessor that died waiting held the old inbox's
        read lock for good, and may have left commands queued in it.
        """
        if rank in self._spawned:
            old = self.inboxes[rank]
            old.cancel_join_thread()
            old.close()
            self.inboxes[rank] = self.ctx.Queue()
        self._spawned.add(rank)
        p = self.ctx.Process(
            target=_rank_main,
            args=(target, self.handle(), rank, pickle.dumps(args)),
            daemon=True,
        )
        p.start()
        self.procs.append(p)
        return p

    def close(self) -> None:
        """Terminate ranks, then close + unlink every segment."""
        if self._closed:
            return
        self._closed = True
        for p in self.procs:
            if p.is_alive():
                p.terminate()
            p.join(timeout=5.0)
        for q in self.inboxes:
            try:
                q.close()
            except Exception:
                pass
        for seg in self._segments:
            try:
                seg.close()
            except Exception:
                pass
            try:
                seg.unlink()
            except (FileNotFoundError, OSError):
                pass
        self._segment_names.clear()
        self._finalizer.detach()


class ShmRank:
    """One rank's endpoint in a :class:`ShmWorld` (built from its handle)."""

    def __init__(self, world: _ShmWorldHandle, rank: int):
        self._world = world
        self.rank = rank
        self._attached: dict[str, Any] = {}

    def shared_array(self, name: str) -> np.ndarray:
        """Map a named world array (see :meth:`ShmWorld.alloc_array`)."""
        try:
            seg_name, shape, dtype = self._world.arrays[name]
        except KeyError:
            raise KeyError(
                f"unknown shared array {name!r}; "
                f"allocated: {sorted(self._world.arrays)}"
            ) from None
        seg = self._attached.get(seg_name)
        if seg is None:
            seg = self._attached[seg_name] = _attach_segment(seg_name)
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)

    def close(self) -> None:
        """Detach this rank's segment mappings (never unlinks)."""
        for seg in self._attached.values():
            try:
                seg.close()
            except Exception:
                pass
        self._attached.clear()

    def send(self, obj: Any, dest: int) -> None:
        """Put ``obj`` (pickled) in rank ``dest``'s inbox."""
        self._world.inboxes[dest].put((self.rank, obj))

    def recv(self, timeout: float | None = None) -> tuple[int, Any]:
        """Take the next message from this rank's inbox → ``(source, obj)``.

        With ``timeout``, raises :class:`TimeoutError` when nothing arrives
        within it.  Without one the wait has no deadline: it wakes every
        :data:`_POLL_S` and raises :class:`SystemExit` once the parent
        process has died, i.e. this process was re-parented.  (The parent's
        liveness pipe is no witness under ``fork``: a sibling rank forked
        later holds a copy of its write end.)
        """
        inbox = self._world.inboxes[self.rank]
        if timeout is not None:
            try:
                return inbox.get(timeout=timeout)
            except queue.Empty:
                raise TimeoutError(
                    f"rank {self.rank}: no message within {timeout} s"
                ) from None
        parent = mp.parent_process()
        while True:
            try:
                return inbox.get(timeout=_POLL_S)
            except queue.Empty:
                if parent is not None and os.getppid() != parent.pid:
                    # Nobody will read what is still buffered for the
                    # parent: exit without flushing it.
                    for q in self._world.inboxes:
                        q.cancel_join_thread()
                    raise SystemExit(
                        f"shm rank {self.rank}: parent process exited"
                    ) from None
