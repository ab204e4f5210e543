"""Execution runtime: sessions, plus at-scale query scheduling."""

from repro.runtime.graph_cache import (
    GraphCache,
    GraphCacheStats,
    bypass_graph_cache,
    clear_graph_cache,
    get_graph,
    graph_cache_stats,
    signature_digest,
)
from repro.runtime.scheduler import (
    BatchFormation,
    BatchingPolicy,
    QueryScheduler,
    ScheduleResult,
    ServiceTimeModel,
)
from repro.runtime.session import (
    InferenceProfile,
    InferenceSession,
    data_comm_span,
    profile_spans,
)

__all__ = [
    "InferenceSession",
    "InferenceProfile",
    "profile_spans",
    "data_comm_span",
    "ServiceTimeModel",
    "BatchingPolicy",
    "BatchFormation",
    "QueryScheduler",
    "ScheduleResult",
    "GraphCache",
    "GraphCacheStats",
    "get_graph",
    "clear_graph_cache",
    "graph_cache_stats",
    "bypass_graph_cache",
    "signature_digest",
]
