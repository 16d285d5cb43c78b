"""Machine performance models (S10).

The paper demonstrates scalability up to 3,000 GPUs on an NVIDIA V100
machine (Summit-class) and an AMD MI250X machine (Crusher/Frontier-class).
We have neither, so — per DESIGN.md §4 — the scaling experiments (E7-E9)
run an analytic performance model:

- :mod:`repro.machine.specs` — published device/interconnect numbers for
  both machines,
- :mod:`repro.machine.perf_model` — per-round cost of the REWL+DL workload:
  MC step compute, NN proposal compute, window exchanges (point-to-point),
  ln g merges (allreduce), flatness sync,
- :mod:`repro.machine.scaling` — strong/weak scaling sweeps and the
  throughput table.

What the model preserves is the *shape* of the curves: near-linear scaling
while per-GPU work dominates, rolloff where exchange/merge communication
catches up, and the V100 vs MI250X per-GPU throughput ratio.  The real
distributed algorithm itself is exercised for real (at laptop scale) by
:mod:`repro.parallel`; this module only extrapolates its cost.
"""

from repro.machine.specs import (
    DeviceSpec,
    InterconnectSpec,
    MachineSpec,
    summit_v100,
    crusher_mi250x,
)
from repro.machine.memory import (
    ChunkPlan,
    plan_chunk_sites,
    streaming_bytes_per_site,
    materialized_bytes_per_site,
)
from repro.machine.perf_model import WorkloadSpec, RoundCostModel
from repro.machine.scaling import (
    ScalingPoint,
    strong_scaling,
    weak_scaling,
    throughput_table,
)

__all__ = [
    "ChunkPlan",
    "plan_chunk_sites",
    "streaming_bytes_per_site",
    "materialized_bytes_per_site",
    "DeviceSpec",
    "InterconnectSpec",
    "MachineSpec",
    "summit_v100",
    "crusher_mi250x",
    "WorkloadSpec",
    "RoundCostModel",
    "ScalingPoint",
    "strong_scaling",
    "weak_scaling",
    "throughput_table",
]
