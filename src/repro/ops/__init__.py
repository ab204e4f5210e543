"""Operator library: functional NumPy kernels + analytical workload descriptors."""

from repro.ops.activations import Relu, Sigmoid, Softmax, Tanh
from repro.ops.attention import LocalActivationAttention
from repro.ops.base import Operator, OpError
from repro.ops.elementwise import Add, Mul, Sum
from repro.ops.embedding import EmbeddingTable, Gather, SparseLengthsSum
from repro.ops.fc import FC
from repro.ops.fused import FusedFC, GroupedSparseLengthsSum
from repro.ops.lazy import (
    LazyParam,
    eager_params,
    materialization_count,
    reset_materialization_count,
)
from repro.ops.matmul import AttentionScores, BatchMatMul, DotInteraction
from repro.ops.recurrent import AUGRU, GRU
from repro.ops.registry import OPERATOR_KINDS, all_kinds, operator_class
from repro.ops.shaping import Concat, Flatten, Reshape, Slice
from repro.ops.workload import MemoryStream, OpWorkload, merge_workloads

__all__ = [
    "Operator",
    "OpError",
    "OpWorkload",
    "MemoryStream",
    "merge_workloads",
    "FC",
    "FusedFC",
    "GroupedSparseLengthsSum",
    "EmbeddingTable",
    "SparseLengthsSum",
    "Gather",
    "Relu",
    "Sigmoid",
    "Tanh",
    "Softmax",
    "Concat",
    "Flatten",
    "Reshape",
    "Slice",
    "Sum",
    "Mul",
    "Add",
    "BatchMatMul",
    "DotInteraction",
    "AttentionScores",
    "GRU",
    "AUGRU",
    "LocalActivationAttention",
    "OPERATOR_KINDS",
    "operator_class",
    "all_kinds",
    "LazyParam",
    "eager_params",
    "materialization_count",
    "reset_materialization_count",
]
