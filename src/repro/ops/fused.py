"""Fused operators produced by the graph-optimization passes.

The paper observes that recommendation models run "out of the box"
underutilize hardware: every small operator pays framework dispatch on
CPUs and a kernel launch on GPUs. The classic remedies are

* **vertical fusion** — fold an activation into its producing FC
  (:class:`FusedFC`), and
* **horizontal fusion** — execute all of a model's same-shaped
  embedding lookups in one kernel, emitting the concatenated pooled
  output directly (:class:`GroupedSparseLengthsSum` — what production
  DLRM kernels actually do).

Functional semantics exactly match the unfused subgraphs; tests pin
output equality.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.tensor import TensorSpec
from repro.ops.base import Operator, OpError
from repro.ops.embedding import EmbeddingTable, SparseLengthsSum
from repro.ops.fc import FC
from repro.ops.workload import OpWorkload, merge_workloads

__all__ = ["FusedFC", "GroupedSparseLengthsSum"]

_ACTIVATION_KINDS = ("Relu", "Sigmoid", "Tanh")


class FusedFC(Operator):
    """FC with its activation applied in-register (one kernel)."""

    kind = "FusedFC"
    arity = 1

    def __init__(self, fc: FC, activation: Operator) -> None:
        if activation.kind not in _ACTIVATION_KINDS:
            raise OpError(f"cannot fuse {activation.kind} into FC")
        self.fc = fc
        self.activation = activation

    def parameters(self):
        return self.fc.parameters()

    def parameter_specs(self):
        return self.fc.parameter_specs()

    def infer_shape(self, input_specs: Sequence[TensorSpec]) -> TensorSpec:
        return self.fc.infer_shape(input_specs)

    def compute(self, inputs: Sequence[np.ndarray]) -> np.ndarray:
        return self.activation.compute([self.fc.compute(inputs)])

    def workload(self, input_specs: Sequence[TensorSpec]) -> OpWorkload:
        fc_work = self.fc.workload(input_specs)
        out_spec = self.fc.infer_shape(input_specs)
        act_work = self.activation.workload([out_spec])
        merged = merge_workloads(self.kind, [fc_work, act_work])
        # Fusion eliminates the activation's separate memory round trip
        # (it happens in registers), its kernel launch, and its
        # dispatch: keep only the FC's streams and a single kernel.
        return OpWorkload(
            op_kind=self.kind,
            flops=merged.flops,
            vector_fraction=merged.vector_fraction,
            uses_fma=fc_work.uses_fma,
            scalar_ops=merged.scalar_ops,
            streams=fc_work.streams,
            code_bytes=fc_work.code_bytes + 256,  # epilogue with activation
            unique_code_blocks=fc_work.unique_code_blocks,
            branches=fc_work.branches,
            branch_entropy=fc_work.branch_entropy,
            kernel_launches=1,
        )


class GroupedSparseLengthsSum(Operator):
    """All of a model's same-dim lookups in one horizontal kernel.

    Inputs: N index tensors ``[batch, lookups_i]`` (one per table).
    Output: the concatenation of the pooled embeddings ``[batch, N*dim]``
    — exactly what the original per-table SLS ops + Concat produced.
    """

    kind = "GroupedSparseLengthsSum"
    arity = None  # one index input per table

    def __init__(self, tables: Sequence[EmbeddingTable]) -> None:
        if not tables:
            raise OpError("grouped SLS needs at least one table")
        dims = {t.dim for t in tables}
        if len(dims) > 1:
            raise OpError("grouped SLS requires a uniform embedding dim")
        self.tables = list(tables)
        self.dim = self.tables[0].dim
        self._members = [SparseLengthsSum(t) for t in self.tables]

    def parameters(self):
        return [t.data for t in self.tables]

    def parameter_specs(self):
        return [t.data_spec for t in self.tables]

    def infer_shape(self, input_specs: Sequence[TensorSpec]) -> TensorSpec:
        if len(input_specs) != len(self.tables):
            raise OpError(
                f"grouped SLS expects {len(self.tables)} index tensors, "
                f"got {len(input_specs)}"
            )
        batch = input_specs[0].shape[0]
        for member, spec in zip(self._members, input_specs):
            member.infer_shape([spec])
            if spec.shape[0] != batch:
                raise OpError("grouped SLS inputs must share the batch size")
        return TensorSpec((batch, len(self.tables) * self.dim), "float32")

    def compute(self, inputs: Sequence[np.ndarray]) -> np.ndarray:
        pooled = [m.compute([idx]) for m, idx in zip(self._members, inputs)]
        return np.concatenate(pooled, axis=1)

    def workload(self, input_specs: Sequence[TensorSpec]) -> OpWorkload:
        parts = [
            m.workload([spec]) for m, spec in zip(self._members, input_specs)
        ]
        merged = merge_workloads(self.kind, parts)
        # One kernel, one code region: the per-table loop is data, not
        # unrolled code. The gather traffic itself is unchanged.
        return OpWorkload(
            op_kind=self.kind,
            flops=merged.flops,
            vector_fraction=merged.vector_fraction,
            uses_fma=merged.uses_fma,
            scalar_ops=merged.scalar_ops,
            streams=merged.streams,
            code_bytes=parts[0].code_bytes + 512,  # table-loop wrapper
            unique_code_blocks=1,
            branches=merged.branches,
            branch_entropy=merged.branch_entropy,
            kernel_launches=1,
        )
