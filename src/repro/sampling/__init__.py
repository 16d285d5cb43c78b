"""Monte Carlo samplers (S5).

All samplers consume any :class:`~repro.hamiltonians.base.Hamiltonian` and
any :class:`~repro.proposals.base.Proposal`; acceptance rules include the
proposal's ``log_q_ratio`` term so learned (asymmetric) proposals remain
exact.  Every sampler satisfies the :class:`Sampler` protocol
(``run(...) -> Result``) and is registered by stable name in
:data:`SAMPLERS` — import from this package, not from the submodules.

- :class:`MetropolisSampler` — canonical sampling at fixed β (a one-row
  :class:`CanonicalTeam`),
- :class:`CanonicalTeam` — K Metropolis chains at per-row signed β on the
  block engine (not a registered sampler; the Metropolis and tempering
  drivers, the energy-range pilot and the walker drive run on it),
- :class:`BatchedWangLandauSampler` / :func:`make_wang_landau` —
  flat-histogram estimation of ln g(E) (standard halving and 1/t
  modification-factor schedules) by a team of walkers sharing one ln g,
  tuned through :class:`WLConfig` (``batch_size=K`` walkers) — the
  block-engine mode every Wang–Landau step runs in,
- :class:`WangLandauSampler` — a single walker: a one-row team,
- :class:`MulticanonicalSampler` — production run with fixed 1/g(E) weights
  (microcanonical observable accumulation): a one-row batched WL team
  with a frozen ln g and ``ln_f = 0``,
- :class:`ParallelTempering` — replica-exchange Metropolis, one
  :class:`CanonicalTeam` whose rows are the β ladder,
- :class:`WolffSampler` — cluster updates for the Ising validation model,
- :class:`EnergyGrid` — uniform or level-based energy binning,
- :func:`drive_into_range` — steers one configuration or a batch into an
  energy window (REWL walker initialization).
"""

from repro.sampling.base import (
    SAMPLERS,
    Sampler,
    get_sampler,
    make_sampler,
    register_sampler,
)
from repro.sampling.binning import EnergyGrid
from repro.sampling.metropolis import CanonicalTeam, MetropolisSampler, RunStats
from repro.sampling.wang_landau import (
    WalkerCounters,
    WangLandauResult,
    WLConfig,
    drive_into_range,
)
from repro.sampling.batched import (
    BatchedWangLandauSampler,
    WangLandauSampler,
    make_wang_landau,
)
from repro.sampling.multicanonical import MulticanonicalSampler, MulticanonicalResult
from repro.sampling.tempering import ParallelTempering, TemperingResult
from repro.sampling.wolff import WolffSampler, WolffStats

__all__ = [
    "SAMPLERS",
    "Sampler",
    "get_sampler",
    "make_sampler",
    "register_sampler",
    "EnergyGrid",
    "CanonicalTeam",
    "MetropolisSampler",
    "RunStats",
    "WalkerCounters",
    "WLConfig",
    "WangLandauSampler",
    "WangLandauResult",
    "BatchedWangLandauSampler",
    "make_wang_landau",
    "drive_into_range",
    "MulticanonicalSampler",
    "MulticanonicalResult",
    "ParallelTempering",
    "TemperingResult",
    "WolffSampler",
    "WolffStats",
]
