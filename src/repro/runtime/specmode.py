"""Spec-mode profiling: numerics-free cost evaluation from workload tables.

Every session profile and sweep runs through this module. The scalar
uarch/gpusim models walk every graph node in Python per operator —
correct, and kept as the reference the tests compare against, but the
sweep grid (models x batches x platforms) would pay that Python cost
per cell. Spec mode splits the work differently:

1. A :class:`WorkloadTable` is extracted once per ``(model, batch)``
   from the cached graph — the same ``op.workload(input_specs)`` calls
   the scalar models make, so every field is identical by
   construction — and holds the hardware-neutral quantities as flat
   float64/int64 arrays. Tables are platform-independent and cached in
   a process-level LRU.
2. :class:`StackedTables` pads all sweep cells into ``(cells, nodes)``
   and ``(cells, nodes, streams)`` arrays so one vectorized evaluation
   (:mod:`repro.uarch.vectorized`, :mod:`repro.gpusim.vectorized`)
   covers every cell of a platform at once.

No tensor data is ever allocated: tables read only specs and workload
descriptors. The evaluators guarantee bit-identical per-op seconds,
bytes, FLOPs, and PMU events to the scalar models (pinned in
``tests/test_specmode.py``), so downstream consumers — ledger records,
TopDown analysis, telemetry spans — see schema-compatible profiles.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import telemetry
from repro.graph import Graph
from repro.hw import PlatformSpec, platform_by_name
from repro.runtime import graph_cache
from repro.runtime.session import InferenceProfile

__all__ = [
    "WorkloadTable",
    "StackedTables",
    "get_workload_table",
    "table_from_graph",
    "stack_tables",
    "profile_spec",
    "profile_spec_sweep",
    "clear_spec_caches",
    "spec_cache_stats",
]


@dataclass
class WorkloadTable:
    """Per-(model, batch) workload quantities as flat arrays.

    One row per graph node, in topological order; stream quantities are
    ``(n, max_streams)`` with a validity mask (operators touch between
    one and a handful of memory streams).
    """

    model_name: str
    graph_name: str
    batch: int
    n: int
    max_streams: int
    names: List[str]
    kinds: List[str]
    #: ``OpWorkload.op_kind`` per node (usually == ``kinds``; kept
    #: separate so GPU device profiles match the scalar model exactly).
    wl_kinds: List[str]
    unique_blocks: List[int]
    input_nbytes: Tuple[int, ...]
    # -- per-node arrays (n,) ------------------------------------------------
    flops: np.ndarray  # int64
    vector_fraction: np.ndarray
    scalar_ops: np.ndarray  # int64
    code_bytes: np.ndarray  # int64
    entries: np.ndarray  # effective_code_entries, int64
    branches: np.ndarray  # int64
    branch_entropy: np.ndarray
    kernel_launches: np.ndarray  # int64
    bytes_written: np.ndarray  # int64
    uses_fma: np.ndarray  # bool
    # -- per-stream arrays (n, max_streams) ----------------------------------
    s_footprint: np.ndarray  # int64
    s_accesses: np.ndarray  # int64
    s_granule: np.ndarray  # int64
    s_locality: np.ndarray
    s_parallelism: np.ndarray  # int64
    s_is_write: np.ndarray  # bool
    s_is_random: np.ndarray  # bool
    s_valid: np.ndarray  # bool

    @property
    def total_input_bytes(self) -> int:
        return sum(self.input_nbytes)


def table_from_graph(
    graph: Graph,
    input_nbytes: Sequence[int],
    model_name: Optional[str] = None,
    batch: int = 0,
) -> WorkloadTable:
    """Extract a workload table from an already-built graph.

    Issues exactly the ``node.op.workload(input_specs)`` calls the
    scalar profilers make, so the table's values are the scalar
    models' values.
    """
    nodes = graph.nodes
    workloads = []
    for node in nodes:
        input_specs = [graph.spec_of(s) for s in node.inputs]
        workloads.append(node.op.workload(input_specs))
    n = len(nodes)
    max_streams = max([len(w.streams) for w in workloads] + [1])

    i64 = lambda vals: np.asarray(vals, dtype=np.int64)  # noqa: E731
    f64 = lambda vals: np.asarray(vals, dtype=np.float64)  # noqa: E731

    s_shape = (n, max_streams)
    s_footprint = np.zeros(s_shape, dtype=np.int64)
    s_accesses = np.zeros(s_shape, dtype=np.int64)
    s_granule = np.zeros(s_shape, dtype=np.int64)
    s_locality = np.zeros(s_shape, dtype=np.float64)
    s_parallelism = np.ones(s_shape, dtype=np.int64)
    s_is_write = np.zeros(s_shape, dtype=bool)
    s_is_random = np.zeros(s_shape, dtype=bool)
    s_valid = np.zeros(s_shape, dtype=bool)
    for j, w in enumerate(workloads):
        for k, s in enumerate(w.streams):
            s_footprint[j, k] = s.footprint_bytes
            s_accesses[j, k] = s.accesses
            s_granule[j, k] = s.granule_bytes
            s_locality[j, k] = s.locality
            s_parallelism[j, k] = s.parallelism
            s_is_write[j, k] = s.is_write
            s_is_random[j, k] = s.pattern == "random"
            s_valid[j, k] = True

    return WorkloadTable(
        model_name=model_name if model_name is not None else graph.name,
        graph_name=graph.name,
        batch=batch,
        n=n,
        max_streams=max_streams,
        names=[node.name for node in nodes],
        kinds=[node.kind for node in nodes],
        wl_kinds=[w.op_kind for w in workloads],
        unique_blocks=[w.unique_code_blocks for w in workloads],
        input_nbytes=tuple(int(b) for b in input_nbytes),
        flops=i64([w.flops for w in workloads]),
        vector_fraction=f64([w.vector_fraction for w in workloads]),
        scalar_ops=i64([w.scalar_ops for w in workloads]),
        code_bytes=i64([w.code_bytes for w in workloads]),
        entries=i64([w.effective_code_entries for w in workloads]),
        branches=i64([w.branches for w in workloads]),
        branch_entropy=f64([w.branch_entropy for w in workloads]),
        kernel_launches=i64([w.kernel_launches for w in workloads]),
        bytes_written=i64([w.bytes_written for w in workloads]),
        uses_fma=np.asarray([w.uses_fma for w in workloads], dtype=bool),
        s_footprint=s_footprint,
        s_accesses=s_accesses,
        s_granule=s_granule,
        s_locality=s_locality,
        s_parallelism=s_parallelism,
        s_is_write=s_is_write,
        s_is_random=s_is_random,
        s_valid=s_valid,
    )


class _TableCache:
    """Bounded LRU of workload tables, keyed like the graph cache."""

    def __init__(self, maxsize: int = 512) -> None:
        self.maxsize = maxsize
        self._tables: "OrderedDict[Tuple, WorkloadTable]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    @staticmethod
    def _signature(model) -> Tuple:
        return (
            model.graph_signature()
            if hasattr(model, "graph_signature")
            else ("id", id(model))
        )

    @classmethod
    def _key(cls, model, batch: int, signature: Optional[Tuple] = None) -> Tuple:
        if signature is None:
            signature = cls._signature(model)
        return (getattr(model, "name", type(model).__name__), batch, signature)

    def get(
        self, model, batch: int, signature: Optional[Tuple] = None
    ) -> WorkloadTable:
        key = self._key(model, batch, signature)
        with self._lock:
            table = self._tables.get(key)
            if table is not None:
                self._tables.move_to_end(key)
                self._hits += 1
                return table
        graph = graph_cache.get_graph(model, batch)
        input_nbytes = [
            desc.spec.nbytes for desc in model.input_descriptions(batch)
        ]
        table = table_from_graph(
            graph,
            input_nbytes,
            model_name=getattr(model, "name", graph.name),
            batch=batch,
        )
        with self._lock:
            self._misses += 1
            self._tables[key] = table
            while len(self._tables) > self.maxsize:
                self._tables.popitem(last=False)
        return table

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()
            self._hits = 0
            self._misses = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._tables),
            }


_TABLES = _TableCache()


class _SweepMemo:
    """Bounded memo of stacked tables + per-platform evaluations.

    Keyed by the identity of the (LRU-cached, immutable) workload
    tables, with strong references held so ids stay stable. A model
    edit changes its ``graph_signature`` and therefore misses the table
    cache, which in turn misses here — no staleness. Entries cache the
    stacked arrays and, per platform, the evaluated profile lists, so
    repeated identical sweeps (monitor loops, benchmark arms) skip the
    vectorized evaluation the way the graph cache skips graph rebuilds.
    """

    def __init__(self, maxsize: int = 4) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self._lock = threading.Lock()

    def entry(
        self, tables: Sequence[WorkloadTable]
    ) -> Tuple[StackedTables, Dict[str, List[InferenceProfile]]]:
        key = tuple(id(t) for t in tables)
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                self._entries.move_to_end(key)
                return found[1], found[2]
        stacked = stack_tables(tables)
        evals: Dict[str, List[InferenceProfile]] = {}
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                return found[1], found[2]
            self._entries[key] = (list(tables), stacked, evals)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return stacked, evals

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_SWEEPS = _SweepMemo()


def get_workload_table(model, batch: int) -> WorkloadTable:
    """Fetch (or build) the workload table for ``(model, batch)``."""
    return _TABLES.get(model, batch)


def _tables_for_sweep(
    models: Mapping[str, object], batch_sizes: Sequence[int]
) -> Tuple[List[Tuple[str, int]], List[WorkloadTable]]:
    """Tables for the full grid; one signature computation per model.

    ``graph_signature()`` walks the whole model config, which dominates
    warm lookups when repeated per (model, batch) cell.
    """
    pairs = [(name, batch) for name in models for batch in batch_sizes]
    signatures = {
        name: _TableCache._signature(models[name]) for name in models
    }
    tables = [
        _TABLES.get(models[name], batch, signature=signatures[name])
        for name, batch in pairs
    ]
    return pairs, tables


def clear_spec_caches() -> None:
    """Drop cached workload tables and sweep evaluations."""
    _TABLES.clear()
    _SWEEPS.clear()


def spec_cache_stats() -> Dict[str, int]:
    stats = _TABLES.stats()
    stats["sweep_entries"] = len(_SWEEPS)
    return stats


class _SlotView(NamedTuple):
    """One stream slot as contiguous ``(cells, nodes)`` slices.

    Everything here is platform-independent, so the evaluators share it
    across every platform of a sweep (and across repeated sweeps via
    the stacked-tables memo) instead of re-deriving masks per platform.
    """

    footprint: np.ndarray
    accesses: np.ndarray
    granule: np.ndarray
    locality: np.ndarray
    sqrt_par: np.ndarray  # sqrt(max(parallelism, 1))
    valid: np.ndarray
    is_write: np.ndarray
    is_random: np.ndarray
    total: np.ndarray  # accesses * granule
    acc_f: np.ndarray  # accesses as float64
    live_acc: np.ndarray  # valid & accesses > 0
    w: np.ndarray  # valid writes
    r: np.ndarray  # valid random reads
    q: np.ndarray  # valid sequential reads
    read: np.ndarray  # live_acc & ~is_write
    rmask: np.ndarray  # read & is_random
    smask: np.ndarray  # read & ~is_random
    any_valid: bool
    any_live: bool


@dataclass
class StackedTables:
    """All sweep cells padded into shared arrays.

    Node arrays are ``(cells, max_nodes)``; stream arrays add a trailing
    stream axis. Padding lanes are masked by ``valid`` — evaluators
    compute over the full arrays (junk lanes may produce inf/nan under
    ``np.errstate(all="ignore")``) and select through the mask at every
    accumulation, so padding never contaminates results.
    """

    cells: List[WorkloadTable]
    valid: np.ndarray
    flops: np.ndarray
    vector_fraction: np.ndarray
    scalar_ops: np.ndarray
    code_bytes: np.ndarray
    entries: np.ndarray
    branches: np.ndarray
    branch_entropy: np.ndarray
    kernel_launches: np.ndarray
    bytes_written: np.ndarray
    uses_fma: np.ndarray
    s_footprint: np.ndarray
    s_accesses: np.ndarray
    s_granule: np.ndarray
    s_locality: np.ndarray
    s_parallelism: np.ndarray
    s_is_write: np.ndarray
    s_is_random: np.ndarray
    s_valid: np.ndarray
    _slots: Optional[List[_SlotView]] = field(default=None, repr=False)
    _gpu_traffic: Optional[Tuple[np.ndarray, ...]] = field(
        default=None, repr=False
    )

    def stream_slots(self) -> List[_SlotView]:
        """Slot-major views of the stream arrays, built once per stack.

        The stream axis is mostly padding (one wide operator sets
        ``max_streams`` for everyone), so evaluators iterate slots over
        small contiguous 2-D slices instead of strided 3-D selections.
        """
        if self._slots is None:
            t = {
                name: np.ascontiguousarray(
                    getattr(self, name).transpose(2, 0, 1)
                )
                for name in _STREAM_FIELDS
            }
            slots: List[_SlotView] = []
            for s in range(self.s_valid.shape[-1]):
                valid = t["s_valid"][s]
                is_write = t["s_is_write"][s]
                is_random = t["s_is_random"][s]
                acc = t["s_accesses"][s]
                nonw = valid & ~is_write
                live_acc = valid & (acc > 0)
                read = live_acc & ~is_write
                slots.append(
                    _SlotView(
                        footprint=t["s_footprint"][s],
                        accesses=acc,
                        granule=t["s_granule"][s],
                        locality=t["s_locality"][s],
                        sqrt_par=np.sqrt(
                            np.maximum(t["s_parallelism"][s], 1)
                        ),
                        valid=valid,
                        is_write=is_write,
                        is_random=is_random,
                        total=acc * t["s_granule"][s],
                        acc_f=acc.astype(np.float64),
                        live_acc=live_acc,
                        w=valid & is_write,
                        r=nonw & is_random,
                        q=nonw & ~is_random,
                        read=read,
                        rmask=read & is_random,
                        smask=read & ~is_random,
                        any_valid=bool(valid.any()),
                        any_live=bool(live_acc.any()),
                    )
                )
            self._slots = slots
        return self._slots

    def gpu_traffic(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-node ``(seq_bytes, rand_bytes, has_gather)`` DRAM terms.

        The GPU kernel model's stream walk is entirely platform
        independent, so it is computed once per stack and shared by
        every GPU evaluation. Mirrors the scalar
        :meth:`~repro.gpusim.kernels.KernelCostModel.cost` loop term
        for term (slot-order masked adds of exact ``0.0``).
        """
        if self._gpu_traffic is None:
            seq = np.zeros(self.valid.shape, dtype=np.float64)
            rand = np.zeros(self.valid.shape, dtype=np.float64)
            has_gather = np.zeros(self.valid.shape, dtype=bool)
            for slot in self.stream_slots():
                if not slot.any_valid:
                    continue
                live = slot.valid
                cached = np.minimum(slot.footprint, slot.total)
                loc = slot.locality
                traffic = loc * cached + (1.0 - loc) * slot.total
                is_rand = slot.is_random
                seq = seq + np.where(live & ~is_rand, traffic, 0.0)
                rand = rand + np.where(live & is_rand, traffic, 0.0)
                has_gather |= live & is_rand & ~slot.is_write
            self._gpu_traffic = (seq, rand, has_gather)
        return self._gpu_traffic


_NODE_FIELDS = (
    "flops",
    "vector_fraction",
    "scalar_ops",
    "code_bytes",
    "entries",
    "branches",
    "branch_entropy",
    "kernel_launches",
    "bytes_written",
    "uses_fma",
)
_STREAM_FIELDS = (
    "s_footprint",
    "s_accesses",
    "s_granule",
    "s_locality",
    "s_parallelism",
    "s_is_write",
    "s_is_random",
    "s_valid",
)


def stack_tables(tables: Sequence[WorkloadTable]) -> StackedTables:
    """Pad per-cell tables into one stacked array set."""
    if not tables:
        raise ValueError("cannot stack an empty table list")
    cells = list(tables)
    n_max = max(t.n for t in cells)
    s_max = max(t.max_streams for t in cells)
    shape = (len(cells), n_max)

    stacked: Dict[str, np.ndarray] = {}
    for name in _NODE_FIELDS:
        proto = getattr(cells[0], name)
        stacked[name] = np.zeros(shape, dtype=proto.dtype)
    for name in _STREAM_FIELDS:
        proto = getattr(cells[0], name)
        stacked[name] = np.zeros(shape + (s_max,), dtype=proto.dtype)
    valid = np.zeros(shape, dtype=bool)
    for i, t in enumerate(cells):
        valid[i, : t.n] = True
        for name in _NODE_FIELDS:
            stacked[name][i, : t.n] = getattr(t, name)
        for name in _STREAM_FIELDS:
            stacked[name][i, : t.n, : t.max_streams] = getattr(t, name)
    return StackedTables(cells=cells, valid=valid, **stacked)


# -- top-level profiling API -------------------------------------------------


def _to_inference_profile(
    raw, platform: PlatformSpec, cell: WorkloadTable, kind: str
) -> InferenceProfile:
    if kind == "cpu":
        return InferenceProfile(
            model_name=cell.model_name,
            platform_name=platform.name,
            platform_kind="cpu",
            batch_size=cell.batch,
            compute_seconds=raw.compute_seconds,
            data_comm_seconds=raw.data_load_seconds,
            op_time_by_kind=raw.time_by_kind(),
            events=raw.events,
            raw=raw,
        )
    return InferenceProfile(
        model_name=cell.model_name,
        platform_name=platform.name,
        platform_kind="gpu",
        batch_size=cell.batch,
        compute_seconds=raw.compute_seconds,
        data_comm_seconds=raw.data_comm_seconds,
        op_time_by_kind=raw.time_by_kind(),
        events=None,
        raw=raw,
    )


def _evaluate(
    stacked: StackedTables, platform: PlatformSpec, constants=None
) -> List[InferenceProfile]:
    """Evaluate every stacked cell on one platform."""
    if platform.kind == "cpu":
        from repro.uarch.vectorized import profile_cells_cpu

        raws = profile_cells_cpu(stacked, platform, constants)
        kind = "cpu"
    else:
        if constants is not None:
            raise ValueError("uarch constants only apply to CPU platforms")
        from repro.gpusim.vectorized import profile_cells_gpu

        raws = profile_cells_gpu(stacked, platform)
        kind = "gpu"
    return [
        _to_inference_profile(raw, platform, cell, kind)
        for raw, cell in zip(raws, stacked.cells)
    ]


def profile_spec(
    model,
    platform: Union[str, PlatformSpec],
    batch: int,
    constants=None,
) -> InferenceProfile:
    """Spec-mode profile of one (model, platform, batch) cell."""
    spec = platform_by_name(platform) if isinstance(platform, str) else platform
    table = get_workload_table(model, batch)
    stacked = stack_tables([table])
    return _evaluate(stacked, spec, constants)[0]


def profile_spec_sweep(
    models: Mapping[str, object],
    platform_names: Sequence[str],
    batch_sizes: Sequence[int],
) -> Dict[Tuple[str, str, int], InferenceProfile]:
    """Spec-mode profiles for a full sweep grid.

    All (model, batch) tables are stacked once; each platform is then a
    single vectorized evaluation over every cell. The returned dict is
    keyed and ordered ``(model, platform, batch)`` in canonical order.

    Repeated sweeps over unchanged models return memoized profile
    objects (the tables are immutable and the evaluation is a pure
    function of table + platform); ``clear_spec_caches`` resets this.
    """
    pairs, tables = _tables_for_sweep(models, batch_sizes)
    stacked, evals = _SWEEPS.entry(tables)

    by_platform: Dict[str, List[InferenceProfile]] = {}
    for platform_name in platform_names:
        profs = evals.get(platform_name)
        if profs is None:
            profs = _evaluate(stacked, platform_by_name(platform_name))
            evals[platform_name] = profs
        by_platform[platform_name] = profs

    index = {pair: i for i, pair in enumerate(pairs)}
    profiles: Dict[Tuple[str, str, int], InferenceProfile] = {}
    for model_name in models:
        for platform_name in platform_names:
            for batch in batch_sizes:
                profiles[(model_name, platform_name, batch)] = by_platform[
                    platform_name
                ][index[(model_name, batch)]]
    if telemetry.enabled():
        telemetry.get_registry().counter(
            "specmode.sweeps", platforms=",".join(platform_names)
        ).inc()
    return profiles
