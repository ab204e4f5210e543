"""Process-level graph cache shared across sessions and platforms.

Graphs are platform-independent: the same ``(model, batch size)`` graph
feeds the CPU pipeline model, the GPU model, and the functional
executor. Before this cache each :class:`InferenceSession` kept its own
``_graphs`` dict, so a four-platform sweep built every graph four
times. The cache keys on ``(model name, batch size, structural
signature)`` — the signature (see
:meth:`repro.models.base.RecommendationModel.graph_signature`)
guarantees that two models sharing a name but differing in
configuration never alias.

Entries are kept in LRU order with a bounded capacity so long-running
variant sweeps (which generate hundreds of distinct models) cannot grow
the cache without bound.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Tuple

from repro import telemetry
from repro.analysis import assert_verified
from repro.graph import Graph

__all__ = [
    "GraphCache",
    "GraphCacheStats",
    "get_graph",
    "clear_graph_cache",
    "graph_cache_stats",
    "bypass_graph_cache",
    "signature_digest",
]


def signature_digest(model) -> str:
    """Stable hex digest of a model's structural graph signature.

    The in-process cache keys on the raw signature tuple; run-ledger
    records need the same identity *across* processes and checkouts, so
    this digests the signature's repr with BLAKE2b (process-salt free,
    unlike ``hash()``). Models falling back to identity signatures get
    an explicitly unstable ``"id:..."`` digest so records never claim a
    stable identity they don't have.
    """
    signature = (
        model.graph_signature()
        if hasattr(model, "graph_signature")
        else ("id", id(model))
    )
    if len(signature) >= 2 and signature[-2] == "id":
        return f"id:{signature[-1]:x}"
    return hashlib.blake2b(
        repr(signature).encode("utf-8"), digest_size=8
    ).hexdigest()


@dataclass(frozen=True)
class GraphCacheStats:
    hits: int
    misses: int
    size: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "size": float(self.size),
            "hit_rate": self.hit_rate,
        }


class GraphCache:
    """Bounded LRU cache of built graphs, safe for concurrent sweeps."""

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._graphs: "OrderedDict[Tuple, Graph]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    @staticmethod
    def _key(model, batch_size: int) -> Tuple:
        signature = (
            model.graph_signature()
            if hasattr(model, "graph_signature")
            else ("id", id(model))
        )
        return (getattr(model, "name", type(model).__name__), batch_size, signature)

    def get(self, model, batch_size: int) -> Graph:
        """The cached graph for ``(model, batch_size)``, building on miss.

        The build happens under the cache lock: with lazy parameters a
        build is cheap (shape inference only), and holding the lock
        keeps concurrent callers from building the same graph twice.
        """
        key = self._key(model, batch_size)
        with self._lock:
            graph = self._graphs.get(key)
            if graph is not None:
                self._graphs.move_to_end(key)
                self._hits += 1
                hit = True
            else:
                graph = model.build_graph(batch_size)
                # A cached graph is served to every session and
                # platform: refuse to cache anything the static
                # verifier rejects (raises GraphVerifyError).
                assert_verified(graph)
                self._graphs[key] = graph
                self._misses += 1
                hit = False
                while len(self._graphs) > self.maxsize:
                    self._graphs.popitem(last=False)
        if telemetry.enabled():
            name = "graph_cache.hits" if hit else "graph_cache.misses"
            telemetry.get_registry().counter(name).inc()
        return graph

    def clear(self) -> None:
        with self._lock:
            self._graphs.clear()
            self._hits = 0
            self._misses = 0

    def stats(self) -> GraphCacheStats:
        with self._lock:
            return GraphCacheStats(
                hits=self._hits, misses=self._misses, size=len(self._graphs)
            )

    def __len__(self) -> int:
        return len(self._graphs)


_GLOBAL = GraphCache()
_bypass = False


def get_graph(model, batch_size: int) -> Graph:
    """Fetch (or build) a graph from the process-level cache."""
    if _bypass:
        return model.build_graph(batch_size)
    return _GLOBAL.get(model, batch_size)


def clear_graph_cache() -> None:
    _GLOBAL.clear()


def graph_cache_stats() -> GraphCacheStats:
    return _GLOBAL.stats()


@contextmanager
def bypass_graph_cache():
    """Build graphs directly, skipping the cache (benchmark baseline)."""
    global _bypass
    prev = _bypass
    # Benchmark-baseline toggle, flipped only from the benchmark's main
    # thread; never raced against cache lookups.
    _bypass = True  # repro: noqa(REP004)
    try:
        yield
    finally:
        _bypass = prev  # repro: noqa(REP004)
