"""Replay buffer of Monte Carlo configurations."""

from __future__ import annotations

import numpy as np

from repro.util.rng import as_generator
from repro.util.validation import check_integer

__all__ = ["ReplayBuffer"]


class ReplayBuffer:
    """Fixed-capacity ring buffer of int8 configurations.

    Oldest entries are overwritten once full — the training distribution
    tracks the walker's recent history, which is what makes the proposal
    adapt as sampling explores new energy regions.
    """

    def __init__(self, capacity: int, n_sites: int, n_species: int):
        self.capacity = check_integer("capacity", capacity, minimum=1)
        self.n_sites = check_integer("n_sites", n_sites, minimum=1)
        self.n_species = check_integer("n_species", n_species, minimum=2)
        self._data = np.zeros((capacity, n_sites), dtype=np.int8)
        self._eye = np.eye(n_species)  # row k: species k one-hot
        self._next = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def is_full(self) -> bool:
        return self._count == self.capacity

    def add(self, config: np.ndarray) -> None:
        """Append one configuration (copied).

        Species are checked here, once per row, so that a batch can be
        encoded without checking: every stored entry is in
        ``[0, n_species)``.
        """
        config = np.asarray(config)
        if config.shape != (self.n_sites,):
            raise ValueError(
                f"configuration must have shape ({self.n_sites},), got {config.shape}"
            )
        if config.min() < 0 or config.max() >= self.n_species:
            raise ValueError(
                f"species out of range [0, {self.n_species}): "
                f"[{config.min()}, {config.max()}]"
            )
        self._data[self._next] = config
        self._next = (self._next + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)

    def add_batch(self, configs: np.ndarray) -> None:
        for row in np.atleast_2d(configs):
            self.add(row)

    def sample(self, batch_size: int, rng=None) -> np.ndarray:
        """Uniform sample with replacement, shape (batch, n_sites) int8."""
        if self._count == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = as_generator(rng).integers(0, self._count, size=batch_size)
        return self._data.take(idx, axis=0)

    def sample_one_hot(self, batch_size: int, rng=None) -> np.ndarray:
        """Uniform sample, one-hot encoded (B, n_sites, n_species).

        Rows of a cached identity matrix taken at the sampled species: the
        values, dtype and layout of :func:`~repro.lattice.configuration.one_hot`
        of the same :meth:`sample`, without re-checking the range.
        """
        return np.take(self._eye, self.sample(batch_size, rng), axis=0)

    def contents(self) -> np.ndarray:
        """All stored configurations (oldest-first not guaranteed)."""
        return self._data[: self._count].copy()
