"""Candidates of an independence proposal, drawn ahead of the chain.

:class:`CandidatePool` holds the rows a :class:`~repro.proposals.base.
PooledProposal` (MADE, VAE) draws a block at a time.  What depends on the
chain — log q of a row's current configuration — is not cached anywhere:
the block engine holds it per row for the length of a block (DESIGN.md
§16).
"""

from __future__ import annotations

import numpy as np

__all__ = ["CandidatePool"]


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
