"""Operator graph IR: tensor specs, graphs, builder, functional executor."""

from repro.graph.builder import GraphBuilder
from repro.graph.passes import (
    DEFAULT_PASSES,
    fuse_fc_activations,
    group_sls_into_concat,
    optimize,
)
from repro.graph.executor import execute
from repro.graph.graph import Graph, GraphError, Node
from repro.graph.tensor import TensorSpec

__all__ = [
    "TensorSpec",
    "Graph",
    "GraphError",
    "Node",
    "GraphBuilder",
    "execute",
    "optimize",
    "fuse_fc_activations",
    "group_sls_into_concat",
    "DEFAULT_PASSES",
]
