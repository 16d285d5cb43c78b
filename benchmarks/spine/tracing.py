"""Tracing for the spine benchmark, recorded from the benchmark's own files.

Two instruments, both kept in memory and written out once at exit:

- :class:`Tracer` records coarse **spans** (name, start, end, parent, plus
  attributes) around the benchmark's calls into each layer — set-up pieces,
  REWL rounds, stitching, thermodynamics, probes.
- :class:`Timed` is a transparent delegating proxy around the Hamiltonian,
  proposal and model objects the benchmark hands to the samplers.  The hot
  calls (one ΔE gather per super-step) are far too many for one span each,
  so they are **aggregated** per layer key into calls / rows / inclusive
  seconds / seconds spent in proxied children (:class:`LayerStats`); a
  layer's self time is inclusive minus children, the same arithmetic spans
  use.

Nothing here edits or monkeypatches the package: the samplers simply
receive a proxy where they would receive the object.  Proxies pickle (REWL
checkpoints, supervisor snapshots and shm worker ranks all pickle the
Hamiltonian and proposals); a :class:`LayerStats` that wakes up in another
process starts from zero and dumps its totals to ``dump_dir`` when that
process exits, so the controller can fold in the work its ranks did.
"""

from __future__ import annotations

import atexit
import json
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

__all__ = ["LayerStats", "Timed", "Tracer", "NullTracer",
           "HAM_METHODS", "LOCAL_METHODS", "DL_METHODS", "MODEL_METHODS",
           "CALLS", "ROWS", "INCL", "CHILD", "ZERO"]

# method name -> (layer key, where the number of rows priced is found):
# None = one row; ("len", i, name) = the length of the argument at position
# i or keyword name; ("int", i, name) = that argument's integer value.
# Plain data, because proxies (and so this table) are pickled.
HAM_METHODS = {
    "delta_energy_swap_many": ("kernels.delta_e", ("len", 1, "ii")),
    "delta_energy_flip_many": ("kernels.delta_e", ("len", 1, "sites")),
    "delta_energy_swap_batch": ("kernels.delta_e", ("len", 1, "ii")),
    "delta_energy_flip_batch": ("kernels.delta_e", ("len", 1, "sites")),
    "delta_energy_swap": ("kernels.delta_e", None),
    "delta_energy_flip": ("kernels.delta_e", None),
    "energies": ("hamiltonians.energies", ("len", 0, "configs")),
    "energy": ("hamiltonians.energies", None),
}
LOCAL_METHODS = {
    "draw_fields": ("proposals.draw", ("len", 0, "configs")),
    "propose_many": ("proposals.draw", ("len", 0, "configs")),
    "propose": ("proposals.draw", None),
}
DL_METHODS = {
    "propose_many": ("proposals.dl", ("len", 0, "configs")),
    "propose": ("proposals.dl", None),
}
MODEL_METHODS = {
    "sample": ("nn.sample", ("int", 0, "n")),
    "log_prob": ("nn.log_prob", ("len", 0, "x_onehot")),
}

#: fields of one layer key's totals, and the totals of a key never called
CALLS, ROWS, INCL, CHILD = range(4)
ZERO = (0, 0, 0.0, 0.0)


class LayerStats:
    """Per-layer-key totals: ``[calls, rows, inclusive_s, child_s]``."""

    def __init__(self, dump_dir=None):
        self.slots: dict[str, list] = {}
        self.stack: list[list] = []
        self.dump_dir = None if dump_dir is None else str(dump_dir)
        self.owner_pid = os.getpid()

    def slot(self, key: str) -> list:
        return self.slots.setdefault(key, list(ZERO))

    def reset(self) -> None:
        for rec in self.slots.values():
            rec[:] = ZERO

    def snapshot(self) -> dict[str, tuple]:
        return {k: tuple(v) for k, v in self.slots.items()}

    def since(self, before: dict[str, tuple]) -> dict[str, tuple]:
        return {
            k: tuple(a - b for a, b in zip(v, before.get(k, ZERO)))
            for k, v in self.slots.items()
        }

    @staticmethod
    def top_level_seconds(totals: dict[str, tuple]) -> float:
        """Seconds covered by proxied calls that had no proxied parent."""
        return sum(v[INCL] - v[CHILD] for v in totals.values())

    # -- crossing a process boundary ---------------------------------------

    def __getstate__(self):
        return {"dump_dir": self.dump_dir, "owner_pid": self.owner_pid}

    def __setstate__(self, state):
        self.slots = {}
        self.stack = []
        self.dump_dir = state["dump_dir"]
        self.owner_pid = state["owner_pid"]
        if self.dump_dir and os.getpid() != self.owner_pid:
            atexit.register(self._dump)

    def _dump(self) -> None:
        if not any(rec[CALLS] for rec in self.slots.values()):
            return
        path = Path(self.dump_dir) / f"stats-{os.getpid()}-{id(self)}.json"
        try:
            path.write_text(json.dumps(self.slots))
        except OSError:
            pass  # exit-time dump is best-effort; the parent reports 0 rows

    def collect_dumps(self, totals: dict[str, tuple]) -> None:
        """Add (and delete) the totals other processes dumped to ``totals``."""
        if not self.dump_dir:
            return
        for path in sorted(Path(self.dump_dir).glob("stats-*.json")):
            for key, rec in json.loads(path.read_text()).items():
                totals[key] = tuple(
                    a + b for a, b in zip(totals.get(key, ZERO), rec)
                )
            path.unlink()


def _rows(row_arg, args, kwargs) -> int:
    """Rows one call priced; 0 when the call did not pass the argument."""
    if row_arg is None:
        return 1
    kind, index, name = row_arg
    value = args[index] if index < len(args) else kwargs.get(name)
    if value is None:
        return 0
    return int(value) if kind == "int" else len(np.atleast_1d(value))


def _timed(fn, key: str, row_arg, stats: LayerStats):
    rec = stats.slot(key)
    stack = stats.stack

    def call(*args, **kwargs):
        stack.append(rec)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            rec[CALLS] += 1
            rec[ROWS] += _rows(row_arg, args, kwargs)
            rec[INCL] += dt
            if stack:
                stack[-1][CHILD] += dt

    return call


class Timed:
    """Delegating view of ``inner`` whose ``methods`` are timed into ``stats``."""

    def __init__(self, inner, methods: dict, stats: LayerStats):
        d = self.__dict__
        d["inner"] = inner
        d["_methods"] = methods
        d["_stats"] = stats
        for name, (key, row_arg) in methods.items():
            fn = getattr(inner, name, None)
            if fn is not None:
                d[name] = _timed(fn, key, row_arg, stats)

    def __getattr__(self, name):
        if name == "inner":  # not yet set (unpickling)
            raise AttributeError(name)
        return getattr(self.inner, name)

    def __reduce__(self):
        return (Timed, (self.inner, self._methods, self._stats))

    def __repr__(self) -> str:
        return f"Timed({self.inner!r})"


class Tracer:
    """In-memory span recorder plus the shared :class:`LayerStats`."""

    enabled = True

    def __init__(self, dump_dir=None):
        self.stats = LayerStats(dump_dir)
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, inner, methods: dict):
        return Timed(inner, methods, self.stats)

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "start": perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None, **attrs}
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        """Total duration of the finished spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["end"] is not None)


class NullTracer:
    """Tracing off: objects pass through unwrapped, spans cost nothing."""

    enabled = False
    stats = None

    def wrap(self, inner, methods: dict):
        return inner

    @contextmanager
    def span(self, name: str, **attrs):
        yield None
