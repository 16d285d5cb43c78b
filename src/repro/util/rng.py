"""Reproducible random-number stream management.

Parallel Monte Carlo demands *independent* streams per walker: correlated
streams silently bias replica-exchange statistics.  We build on numpy's
``SeedSequence`` spawning, which guarantees independence by construction, and
expose a tiny factory so samplers, proposals, and walker teams all draw
from the same seeding discipline.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngFactory", "as_generator", "spawn_generators", "BufferedDraws"]


def as_generator(seed_or_rng) -> np.random.Generator:
    """Coerce ``seed_or_rng`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh OS entropy), an integer seed, a ``SeedSequence``,
    an existing ``Generator``, or a :class:`BufferedDraws` facade (the last
    two are returned unchanged).
    """
    if isinstance(seed_or_rng, (np.random.Generator, BufferedDraws)):
        return seed_or_rng
    if isinstance(seed_or_rng, np.random.SeedSequence):
        return np.random.default_rng(seed_or_rng)
    return np.random.default_rng(seed_or_rng)


def spawn_generators(seed, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` provably independent generators from one seed."""
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


class BufferedDraws:
    """Generator facade with block-buffered scalar draws.

    Scalar ``Generator.random()`` / ``Generator.integers(n)`` calls cost
    microseconds each, which dominates tight MC loops on one core.  This
    wrapper pre-draws blocks of uniforms and serves scalars from them;
    every other attribute/method is delegated to the wrapped generator, so
    code that needs full Generator functionality (``standard_normal``,
    array draws, ...) keeps working.

    Notes
    -----
    - ``integers(high)`` (single positional int, scalar) is served as
      ``floor(u·high)``; the bias is O(high·2⁻⁵³) — negligible for any
      realistic site count.  Other call signatures are delegated.
    - Draw *order* differs from an unbuffered Generator with the same seed
      (blocks are pre-consumed); runs remain fully deterministic per seed.
    - Picklable, so REWL walkers can ship across processes.
    """

    __slots__ = ("generator", "_block", "_buf", "_pos")

    def __init__(self, generator: np.random.Generator, block: int = 4096):
        if isinstance(generator, BufferedDraws):
            generator = generator.generator
        self.generator = generator
        self._block = int(block)
        self._buf = generator.random(self._block)
        self._pos = 0

    def _next_uniform(self) -> float:
        if self._pos >= self._block:
            self._buf = self.generator.random(self._block)
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        return value

    def random(self, size=None):
        if size is None:
            return self._next_uniform()
        return self.generator.random(size)

    def integers(self, low, high=None, size=None, **kwargs):
        if high is None and size is None and not kwargs and isinstance(low, (int, np.integer)):
            return int(self._next_uniform() * low)
        return self.generator.integers(low, high=high, size=size, **kwargs)

    def __getattr__(self, name):
        return getattr(self.generator, name)

    def __getstate__(self):
        return {
            "generator": self.generator,
            "block": self._block,
            "buf": self._buf,
            "pos": self._pos,
        }

    def __setstate__(self, state):
        object.__setattr__(self, "generator", state["generator"])
        object.__setattr__(self, "_block", state["block"])
        object.__setattr__(self, "_buf", state["buf"])
        object.__setattr__(self, "_pos", state["pos"])


class RngFactory:
    """Hierarchical seed factory.

    A single root seed deterministically generates the stream for every
    (component, index) pair in the system — e.g. ``factory.make("walker", 3)``
    always yields the same stream for a given root seed, regardless of the
    order in which components ask for their streams.  This is what makes the
    in-process and multiprocess REWL backends bit-identical.
    """

    def __init__(self, root_seed: int | None = 0):
        self._root = np.random.SeedSequence(root_seed)
        self.root_seed = root_seed

    def make(self, component: str, index: int = 0) -> np.random.Generator:
        """Create the generator for ``(component, index)``.

        The component name is hashed into spawn-key integers so different
        components get independent streams even at the same index.
        """
        # Stable 64-bit hash of the component name (not Python's salted hash).
        h = np.uint64(1469598103934665603)
        for byte in component.encode("utf-8"):
            h = np.uint64((int(h) ^ byte) * 1099511628211 % (1 << 64))
        key = [int(h & np.uint64(0xFFFFFFFF)), int(h >> np.uint64(32)), int(index)]
        child = np.random.SeedSequence(entropy=self._root.entropy, spawn_key=tuple(key))
        return np.random.default_rng(child)

    def seed_for(self, component: str, index: int = 0) -> int:
        """Return a plain integer seed for ``(component, index)``.

        Useful when a stream must cross a process boundary (multiprocessing
        workers receive integer seeds, not generator objects).
        """
        return int(self.make(component, index).integers(0, 2**63 - 1))
