"""Current-configuration ``log q`` caching for the DL proposals.

An independence proposal needs ``log q`` of the *current* configuration in
every MH ratio, but the current configuration only changes when a move is
accepted — at the low acceptance rates global proposals run at, the same
value would otherwise be recomputed (a full model forward, or an IWAE
estimate) for every rejected step.

:class:`CurrentLogQCache` is the shared cache the DL proposals use.
Versioning is two-level:

- an **epoch counter** bumped by :meth:`invalidate` — the proposal's
  ``invalidate_cache()`` calls it after the model retrains, which makes
  every stored value stale at once;
- a **per-configuration content key** (the config bytes, plus the
  conditioning bytes for conditional models).  An accepted move rewrites the
  walker's configuration, so its key changes and the stale entry simply
  stops being hit — no explicit per-walker version bump is needed.  This is
  deliberate: replica exchange (``set_slot``) and checkpoint restores
  rewrite walker configurations *behind the proposal's back*, so a
  sampler-maintained "bumped on accept" counter would silently serve stale
  values after a swap; content keys cannot.

The batch API (:meth:`lookup_many` / :meth:`store_many`) lets
``propose_many`` score only the rows that actually changed since the last
super-step in one model forward.

Capacity is bounded FIFO: with B walkers in flight at most B entries are
live, and :meth:`CurrentLogQCache.lookup_many` keeps room for twice the batch
it is asked about, so a team never evicts its own live entries; the bound
only stops dead entries from piling up.

:class:`CandidatePool` is the other half of an independence proposal's
state: candidates drawn ahead of the chain, a block at a time (see
:mod:`repro.proposals.dl_made`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["CandidatePool", "CurrentLogQCache"]


class CurrentLogQCache:
    """Bounded FIFO map from configuration bytes to cached ``log q``.

    Exposes a small dict-like surface (``in``, ``[]``, ``len``, ``clear``)
    so tests can poke entries directly.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._store: dict[bytes, float] = {}
        #: Epochs survived — bumped by :meth:`invalidate`; exposed so run
        #: health/telemetry can confirm retraining invalidations happen.
        self.version = 0
        self.hits = 0
        self.misses = 0

    # --------------------------------------------------------- one entry

    @staticmethod
    def key(config: np.ndarray, extra: bytes = b"") -> bytes:
        """Content key of a configuration (+ conditioning bytes if any)."""
        return np.ascontiguousarray(config).tobytes() + extra

    def get(self, key: bytes) -> float | None:
        value = self._store.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: bytes, value: float) -> None:
        if key not in self._store and len(self._store) >= self.capacity:
            self._store.pop(next(iter(self._store)))
        self._store[key] = float(value)

    # -------------------------------------------------------------- batched

    def lookup_many(self, configs: np.ndarray,
                    extras: list[bytes] | None = None) -> tuple[np.ndarray, np.ndarray, list[bytes]]:
        """Batch lookup: ``(values, missing_mask, keys)`` for a (B, n) batch.

        ``values[b]`` is the cached ``log q`` where known (0.0 placeholder
        where missing); ``missing_mask[b]`` is True for rows the caller must
        score and then :meth:`store_many`.
        """
        configs = np.ascontiguousarray(np.atleast_2d(configs))
        B = configs.shape[0]
        # Every row of this batch is live at once; twice that leaves room
        # for the entries accepted moves are about to orphan.
        self.capacity = max(self.capacity, 2 * B)
        flat, width = configs.tobytes(), configs[0].nbytes if B else 0
        keys = [flat[b * width:(b + 1) * width] for b in range(B)]  # == key(row)
        if extras is not None:
            keys = [k + e for k, e in zip(keys, extras)]
        values = np.zeros(B, dtype=np.float64)
        missing = np.zeros(B, dtype=bool)
        for b, k in enumerate(keys):
            cached = self.get(k)
            if cached is None:
                missing[b] = True
            else:
                values[b] = cached
        return values, missing, keys

    def store_many(self, keys: list[bytes], missing: np.ndarray,
                   values: np.ndarray, computed: np.ndarray) -> np.ndarray:
        """Fill ``values[missing]`` from ``computed`` and cache them.

        ``computed`` holds one freshly scored value per True entry of
        ``missing`` (in row order).  Returns ``values`` for chaining.
        """
        rows = np.nonzero(missing)[0]
        for r, v in zip(rows, np.asarray(computed, dtype=np.float64)):
            values[r] = v
            self.put(keys[r], float(v))
        return values

    # ----------------------------------------------------------- lifecycle

    def invalidate(self) -> None:
        """Drop everything and open a new epoch (call after retraining)."""
        self._store.clear()
        self.version += 1

    # dict-like surface (tests and diagnostics) ---------------------------

    def clear(self) -> None:
        self._store.clear()

    def __contains__(self, key: bytes) -> bool:
        return key in self._store

    def __getitem__(self, key: bytes) -> float:
        return self._store[key]

    def __setitem__(self, key: bytes, value: float) -> None:
        self.put(key, value)

    def __len__(self) -> int:
        return len(self._store)

    def __bool__(self) -> bool:
        return bool(self._store)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"CurrentLogQCache(n={len(self._store)}, version={self.version}, "
            f"hit_rate={self.hit_rate:.2f})"
        )


class CandidatePool:
    """Rows of an independence proposal drawn ahead of the chain.

    A pool is a tuple of parallel arrays (candidate configurations and
    whatever was computed for each when it was drawn) with a cursor.
    :meth:`take` hands out consecutive rows, each exactly once, and calls
    ``refill`` for the next block whenever the cursor reaches the end.  The
    rows of ``q`` are i.i.d. and depend on nothing in the chain, so a chain
    that consumes them in order is the chain that draws them on demand.

    Plain data: it pickles with the proposal that owns it, cursor included.
    """

    def __init__(self):
        self.drop()

    def drop(self) -> None:
        """Forget the rows not yet handed out (the model changed)."""
        self.columns: tuple = ()
        self.size = 0
        self.cursor = 0
        #: the Hamiltonian that priced an energy column, when there is one
        self.priced_by = None
        #: the species counts the rows were drawn for (None: any composition)
        self.drawn_for = None

    def take(self, n: int, refill) -> tuple:
        """The next ``n`` rows of every column, refilling as often as needed.

        ``refill()`` returns the columns of a fresh block, equal-length
        arrays.  Rows that lie in one block come back as views.
        """
        parts = []
        while n or not parts:
            if self.cursor == self.size:
                self.columns = tuple(refill())
                self.size = len(self.columns[0])
                self.cursor = 0
            stop = min(self.cursor + n, self.size)
            parts.append(tuple(col[self.cursor:stop] for col in self.columns))
            n -= stop - self.cursor
            self.cursor = stop
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(cols) for cols in zip(*parts))
