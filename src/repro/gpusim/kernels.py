"""Per-operator GPU kernel cost model (roofline + overheads).

Each operator lowers to ``kernel_launches`` device kernels. A kernel
costs a launch overhead plus the larger of its compute time and its
memory time:

* compute time = flops / (peak * class_efficiency * occupancy), where
  *class efficiency* encodes how well this operator family maps onto
  SIMT hardware (big GEMMs well; per-lookup local-activation units and
  sequential GRU steps poorly — the paper's Section IV observations),
  and *occupancy* rises with per-kernel work (small kernels cannot fill
  the SMs, which is what makes small-batch inference GPU-hostile);
* memory time = bytes / (bandwidth * pattern_efficiency) — random
  row gathers cannot coalesce, so SparseLengthsSum runs far below the
  GDDR peak.

Class efficiencies are calibrated against the paper's end-to-end
speedup envelope (~15x max for the FC-heavy models over Broadwell);
the mechanisms (occupancy scaling, launch floors, gather penalties)
are what produce every crossover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.hw.platform import GpuSpec
from repro.ops.workload import OpWorkload, RANDOM

__all__ = ["KernelCostModel", "OpDeviceProfile", "COMPUTE_EFFICIENCY"]

#: Fraction of peak FP32 throughput each operator class achieves in a
#: fully-occupied kernel (Pascal baseline; Turing gets an arch bonus).
COMPUTE_EFFICIENCY: Dict[str, float] = {
    "FC": 0.06,
    "FusedFC": 0.06,
    "GroupedSparseLengthsSum": 0.02,
    "BatchMatMul": 0.055,
    "DotInteraction": 0.05,
    "AttentionScores": 0.05,
    "RecurrentNetwork": 0.028,
    "AUGRU": 0.028,
    "LocalActivation": 0.010,
    "SparseLengthsSum": 0.02,
    "Gather": 0.02,
    "Softmax": 0.04,
    "Sum": 0.05,
    "Mul": 0.05,
    "Add": 0.05,
    "Relu": 0.05,
    "Sigmoid": 0.05,
    "Tanh": 0.05,
    "Concat": 0.03,
}
_DEFAULT_COMPUTE_EFFICIENCY = 0.04

#: Memory-bandwidth efficiency by access pattern.
_SEQUENTIAL_BW_EFFICIENCY = 0.7
#: Uncoalesced row-gather efficiency by memory technology: GDDR6's
#: higher per-pin rate and smaller effective access granularity serve
#: short random rows better (the paper's T4-vs-1080Ti observation for
#: RM1/RM2).
_RANDOM_BW_EFFICIENCY = {"GDDR5X": 0.08, "GDDR6": 0.13}
_DEFAULT_RANDOM_BW_EFFICIENCY = 0.08

#: Resident threads per SM in the occupancy saturation curve.
_THREADS_PER_SM = 2048

#: Per-kernel latency floor for irregular-gather kernels: dependent
#: index->row memory round trips that no amount of parallelism hides.
#: This is what makes a 26-table WnD inference SLS-dominated on GPUs at
#: small batch (paper Fig 6). GDDR6's lower access granularity shaves
#: the round trip (the T4's small-batch edge on RM1/RM2).
_GATHER_LATENCY_US = {"GDDR5X": 25.0, "GDDR6": 20.0}
_DEFAULT_GATHER_LATENCY_US = 25.0

#: Architecture generation multipliers on compute efficiency: Turing's
#: independent thread scheduling + improved SM partitioning extract
#: more from each SM than Pascal (the paper's T4 > 1080 Ti at large
#: batch despite lower peak flops).
_ARCH_EFFICIENCY = {"Pascal": 1.0, "Turing": 2.0}


@dataclass(frozen=True)
class OpDeviceProfile:
    """Device-side cost of one operator invocation."""

    op_kind: str
    kernel_count: int
    launch_seconds: float
    compute_seconds: float
    memory_seconds: float

    @property
    def seconds(self) -> float:
        return self.launch_seconds + max(self.compute_seconds, self.memory_seconds)


class KernelCostModel:
    def __init__(self, spec: GpuSpec) -> None:
        self.spec = spec
        self.arch_factor = _ARCH_EFFICIENCY.get(spec.microarchitecture, 1.0)

    def class_efficiency(self, op_kind: str) -> float:
        return COMPUTE_EFFICIENCY.get(op_kind, _DEFAULT_COMPUTE_EFFICIENCY)

    def occupancy(self, parallel_items_per_kernel: float) -> float:
        """SM-fill fraction as a function of per-kernel parallelism.

        A kernel's exploitable parallelism is roughly its output
        elements (one thread each). Kernels narrower than the machine's
        resident-thread capacity leave SMs idle — the reason small
        batches and DIN's per-lookup units underutilize GPUs. The
        sub-linear exponent reflects latency hiding: a partially-filled
        machine still overlaps memory and math within its warps.
        """
        capacity = self.spec.sm_count * _THREADS_PER_SM
        fill = parallel_items_per_kernel / (parallel_items_per_kernel + capacity)
        return fill**0.6

    @staticmethod
    def parallel_items(workload: OpWorkload) -> float:
        """Output elements per kernel (fp32 words written)."""
        kernels = max(workload.kernel_launches, 1)
        written = workload.bytes_written / 4.0
        if written <= 0:
            # Fall back to flop-derived width for write-free ops.
            written = workload.flops / 64.0
        return max(written / kernels, 1.0)

    def memory_bytes(self, workload: OpWorkload) -> "tuple[float, float]":
        """(sequential_bytes, random_bytes) of device-memory traffic.

        Streams with high locality hit the device L2; charge their
        footprint instead of their total traffic.
        """
        seq = 0.0
        rand = 0.0
        for stream in workload.streams:
            # Locality-covered re-touches are served by the device L2:
            # they cost at most one pass over the (touched part of the)
            # footprint rather than the full access volume.
            cached = min(stream.footprint_bytes, stream.total_bytes)
            traffic = (
                stream.locality * cached
                + (1.0 - stream.locality) * stream.total_bytes
            )
            if stream.pattern == RANDOM:
                rand += traffic
            else:
                seq += traffic
        return seq, rand

    def profile(self, workload: OpWorkload) -> OpDeviceProfile:
        spec = self.spec
        kernels = max(workload.kernel_launches, 0)
        launch_seconds = kernels * spec.kernel_launch_us * 1e-6
        if kernels == 0:
            return OpDeviceProfile(workload.op_kind, 0, 0.0, 0.0, 0.0)

        efficiency = (
            self.class_efficiency(workload.op_kind)
            * self.arch_factor
            * self.occupancy(self.parallel_items(workload))
        )
        peak_flops = spec.peak_fp32_tflops * 1e12
        compute_seconds = (
            workload.flops / (peak_flops * efficiency) if workload.flops else 0.0
        )

        seq_bytes, rand_bytes = self.memory_bytes(workload)
        bw = spec.dram_bandwidth_gbps * 1e9
        rand_eff = _RANDOM_BW_EFFICIENCY.get(
            spec.ddr_type, _DEFAULT_RANDOM_BW_EFFICIENCY
        )
        memory_seconds = (
            seq_bytes / (bw * _SEQUENTIAL_BW_EFFICIENCY)
            + rand_bytes / (bw * rand_eff)
        )
        if any(s.pattern == RANDOM and not s.is_write for s in workload.streams):
            gather_latency = _GATHER_LATENCY_US.get(
                spec.ddr_type, _DEFAULT_GATHER_LATENCY_US
            )
            memory_seconds += kernels * gather_latency * 1e-6
        return OpDeviceProfile(
            op_kind=workload.op_kind,
            kernel_count=kernels,
            launch_seconds=launch_seconds,
            compute_seconds=compute_seconds,
            memory_seconds=memory_seconds,
        )
