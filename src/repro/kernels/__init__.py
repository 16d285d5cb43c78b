"""repro.kernels — the vectorized compute layer under the Hamiltonians.

DeepThermo's throughput premise (and the data-driven HEA MC literature it
builds on) is that flat-histogram sampling lives or dies on the ΔE hot
path.  This package centralizes that hot path:

- :class:`PairTables` — per-model precomputed neighbor index tables,
  difference-row ΔE lookup tables, and bond-correction stacks;
- :mod:`repro.kernels.ops` — scalar and ``*_many`` (many configs, one
  move each) energy/ΔE kernels, all O(z) numpy gathers with no Python
  per-neighbor loop;
- :class:`ChunkedPairTables` — the ultra-large-scale streaming evaluator:
  full energies and SRO pair counts in O(chunk · z) memory via integer
  count contraction, bit-identical across chunk sizes;
- ``superstep.c`` with :mod:`repro.kernels.native` (build-once loader) and
  :mod:`repro.kernels.superstep` (its ctypes face) — the step loop of a
  local-move block compiled, bit-identical to the NumPy block that stays
  its oracle (DESIGN.md §16).

The Hamiltonians in :mod:`repro.hamiltonians` delegate here; samplers reach
the ΔE kernels through the ``Hamiltonian`` batched API (``energies``,
``delta_energy_*_many``) and import this package
only for the compiled block (:func:`repro.sampling.batched.advance_block`).
"""

from repro.kernels import ops
from repro.kernels.chunked import ChunkedPairTables
from repro.kernels.tables import PairTables

__all__ = ["PairTables", "ChunkedPairTables", "ops"]
