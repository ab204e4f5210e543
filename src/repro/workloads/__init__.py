"""Synthetic query workloads (batch grids, index distributions)."""

from repro.workloads.distributions import (
    IndexDistribution,
    UniformIndices,
    ZipfIndices,
    hot_keys,
    hot_mass,
)
from repro.workloads.generator import (
    QueryGenerator,
    operator_breakdown_batch_sizes,
    paper_batch_sizes,
)

__all__ = [
    "IndexDistribution",
    "UniformIndices",
    "ZipfIndices",
    "hot_keys",
    "hot_mass",
    "QueryGenerator",
    "paper_batch_sizes",
    "operator_breakdown_batch_sizes",
]
