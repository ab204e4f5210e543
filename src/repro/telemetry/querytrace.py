"""Per-query causal event capture with exact critical-path decomposition.

``QueryTraceCapture`` is an optional sink of both schedulers. For
every query it records the causal chain — enqueue, batch admission,
dispatch and finish per attempt, retry backoff gaps, hedge issue/win,
and the per-shard gather fan-out of the winning attempt. The
schedulers fill it after the run, replaying their
:class:`~repro.telemetry.runlog.RunLog` in loop order through
:meth:`~QueryTraceCapture.begin_run`, ``attempt``, ``shed``, ``drop``
and ``settle``. Capture is strictly observational: the replay only
*copies* floats the run already computed, draws no randomness, and
reads nothing back, so results are bit-identical with capture on or
off (the same contract :class:`~repro.telemetry.timeseries.TimeSeries`
established).

At settlement each completed query's chain is walked into a monotone
sequence of labeled intervals covering ``[arrival, completion]`` and
folded into the seven named latency components (:data:`COMPONENTS`).
The decomposition is *exact*: after a residue-balancing pass,
``math.fsum`` of the components in :data:`COMPONENTS` order equals the
measured latency bit-for-bit (``==``, not approx) — this is the
conservation law ``repro fuzz`` guards via the
``latency_decomposition_conservation`` contract.

Memory is bounded by a tail-biased reservoir: every query whose
latency reaches ``tail_threshold_s`` is retained (``None`` retains
all), plus a seeded uniform sample of the rest keyed by
``hashed_uniform(seed, qid)`` — a pure hash, so retention decisions
never touch any RNG stream. A hard ``max_queries`` cap evicts the
lowest-latency retained entries (uniform sample first). Aggregate
component totals are maintained over *all* completed queries
regardless of retention, so mean attribution is exact even when the
reservoir drops records.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "COMPONENTS",
    "ServiceParts",
    "HedgeLeg",
    "AttemptEvent",
    "QueryTraceRecord",
    "QueryTraceCapture",
    "decompose_attempts",
]

#: The named latency components, in canonical summation order. The
#: conservation law is ``math.fsum(components[k] for k in COMPONENTS)
#: == latency`` — exactly, after residue balancing.
COMPONENTS = (
    "queue_wait",
    "batch_formation",
    "service",
    "gather_network",
    "straggler_wait",
    "retry_backoff",
    "hedge_margin",
)

#: The ``shard_seconds`` of every settled record without gather pieces:
#: one shared read-only empty mapping instead of an empty dict each.
_NO_SHARDS: Mapping[str, Dict[str, float]] = MappingProxyType({})


@dataclass(slots=True)
class ServiceParts:
    """The additive breakdown of one attempt's service interval.

    All values are copies of floats the simulator already computed
    (``BatchFaults`` extras and ``GatherOutcome`` seconds); recording
    them performs no arithmetic that feeds back into the simulation.
    ``gather_pieces`` holds ``(shard, seconds, lost)`` per fan-out
    piece of the gather critical path.
    """

    base_s: float = 0.0
    pcie_extra_s: float = 0.0
    slowdown_extra_s: float = 0.0
    straggler_extra_s: float = 0.0
    gather_s: float = 0.0
    gather_pieces: Tuple[Tuple[str, float, bool], ...] = ()


@dataclass(slots=True)
class HedgeLeg:
    """The duplicate (hedge) dispatch of a batch, when one was issued."""

    start: float
    server: str
    server_index: int
    parts: ServiceParts


@dataclass(slots=True)
class AttemptEvent:
    """One dispatch attempt of one query (a member of one batch)."""

    attempt: int
    ready: float
    batch_close: float
    start: float
    end: float
    outcome: str  # "completed" | "crash" | "drop_response" | "timeout"
    server: str
    server_index: int
    lane: int
    parts: ServiceParts
    hedge: Optional[HedgeLeg] = None
    hedge_won: bool = False


@dataclass(slots=True)
class QueryTraceRecord:
    """One retained query: its causal chain and exact decomposition."""

    qid: int
    arrival: float
    completion: float
    latency: float
    components: Dict[str, float]
    intervals: Tuple[Tuple[str, float, float, Optional[str]], ...]
    attempts: Tuple[AttemptEvent, ...]
    shard_seconds: Mapping[str, Dict[str, float]] = field(default_factory=dict)
    reason: str = "tail"

    def conservation_ok(self) -> bool:
        """Whether the components sum exactly to the measured latency."""
        total = math.fsum(self.components[k] for k in COMPONENTS)
        return total == self.latency

    def dominant_component(self) -> str:
        return max(COMPONENTS, key=lambda k: self.components[k])


class _Walk:
    """Monotone interval emitter over ``[arrival, completion]``."""

    __slots__ = ("completion", "cur", "comps", "intervals", "shards")

    def __init__(self, arrival: float, completion: float) -> None:
        self.completion = completion
        self.cur = arrival
        self.comps = dict.fromkeys(COMPONENTS, 0.0)
        self.intervals: List[Tuple[str, float, float, Optional[str]]] = []
        self.shards: Dict[str, Dict[str, float]] = {}

    def emit(self, label: str, end: float, shard: Optional[str] = None) -> None:
        if end > self.completion:
            end = self.completion
        if end <= self.cur:
            return
        width = end - self.cur
        self.comps[label] += width
        self.intervals.append((label, self.cur, end, shard))
        if shard is not None:
            by_shard = self.shards.setdefault(label, {})
            by_shard[shard] = by_shard.get(shard, 0.0) + width
        self.cur = end


def _emit_execution(
    walk: _Walk, parts: ServiceParts, replica: str, force_end: float
) -> None:
    """Split one winning execution interval into service / straggler_wait
    / gather_network, laid out sequentially (a documented synthetic
    layout — the simulator models them as a single additive service
    time). The last planned segment is forced to end at ``force_end``
    so the chain closes exactly at the completion time.
    """
    service_w = parts.base_s + parts.pcie_extra_s + parts.slowdown_extra_s
    worst_shard = None
    if parts.gather_pieces:
        worst_shard = max(parts.gather_pieces, key=lambda p: p[1])[0]
    plan = [
        ("service", service_w, None),
        ("straggler_wait", parts.straggler_extra_s, replica),
        ("gather_network", parts.gather_s, worst_shard),
    ]
    plan = [p for p in plan if p[1] > 0.0 or p[0] == "service"]
    for i, (label, width, shard) in enumerate(plan):
        end = force_end if i == len(plan) - 1 else walk.cur + width
        walk.emit(label, end, shard)


def decompose_attempts(
    arrival: float,
    completion: float,
    latency: float,
    attempts: List[AttemptEvent],
) -> Tuple[
    Dict[str, float],
    Tuple[Tuple[str, float, float, Optional[str]], ...],
    Dict[str, Dict[str, float]],
]:
    """Walk one query's attempt chain into exact latency components.

    Returns ``(components, intervals, shard_seconds)``. Components sum
    exactly (``math.fsum`` in :data:`COMPONENTS` order) to ``latency``
    after residue balancing; intervals are the monotone labeled cover
    of ``[arrival, completion]`` used for fault-window overlap and
    Perfetto flow rendering (their widths match the components up to
    float residue).
    """
    walk = _Walk(arrival, completion)
    last_i = len(attempts) - 1
    for i, a in enumerate(attempts):
        walk.emit("queue_wait" if i == 0 else "retry_backoff", a.ready)
        winning = i == last_i and a.outcome == "completed"
        if winning and a.hedge_won and a.hedge is not None:
            walk.emit("batch_formation", min(a.batch_close, a.hedge.start))
            walk.emit("hedge_margin", a.hedge.start)
            _emit_execution(walk, a.hedge.parts, a.hedge.server, completion)
        elif winning:
            walk.emit("batch_formation", a.batch_close)
            walk.emit("queue_wait", a.start)
            _emit_execution(walk, a.parts, a.server, completion)
        else:
            # Failed attempt: its chain is capped at the failure-
            # detection time; concurrent causes resolve in favor of
            # the earlier-labeled phase.
            walk.emit("batch_formation", min(a.batch_close, a.end))
            walk.emit("queue_wait", min(a.start, a.end))
            walk.emit("service", a.end)
    if walk.cur < completion:
        walk.emit("service", completion)
    _balance(walk.comps, latency)
    return walk.comps, tuple(walk.intervals), walk.shards


def _balance(comps: Dict[str, float], latency: float) -> None:
    """Fold the float summation residue into the largest component
    until ``math.fsum`` of the components equals ``latency`` exactly.

    The residue is a few ulps from telescoping interval subtractions,
    so adding it back usually converges immediately. Two float corner
    cases need finer steps: a component in a lower binade overshoots
    by its own ulp and oscillates, and a true sum sitting exactly on a
    rounding midpoint ties away from the latency no matter which way a
    same-ulp component steps. Walking a component one float at a time
    handles the first; escalating to a component with a *smaller* ulp
    than the latency (one always exists when two or more components
    are nonzero, since at most one can share the latency's binade)
    moves the true sum in sub-ulp increments and breaks the tie. The
    final collapse never fires in practice — it is the documented
    last-resort guarantee that conservation is unconditional.
    """
    residue = latency - math.fsum([comps[k] for k in COMPONENTS])
    if residue == 0.0:
        return
    key = max(COMPONENTS, key=lambda k: comps[k])
    for _ in range(8):
        comps[key] += residue
        residue = latency - math.fsum([comps[k] for k in COMPONENTS])
        if residue == 0.0:
            return

    fine = [
        k for k in COMPONENTS
        if comps[k] > 0.0 and math.ulp(comps[k]) < math.ulp(latency)
    ]
    fine.sort(key=lambda k: comps[k], reverse=True)
    for step_key in [key] + fine:
        for _ in range(64):
            residue = latency - math.fsum(comps[k] for k in COMPONENTS)
            if residue == 0.0:
                return
            toward = math.inf if residue > 0.0 else -math.inf
            comps[step_key] = math.nextafter(comps[step_key], toward)

    others = math.fsum(comps[k] for k in COMPONENTS if k != key)
    comps[key] = latency - others
    if latency - math.fsum(comps[k] for k in COMPONENTS) == 0.0:
        return
    for k in COMPONENTS:
        comps[k] = 0.0
    comps[key] = latency


def _check_type(
    name: str, value: object, kind=numbers.Real, what: str = "a number"
) -> None:
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{name} must be {what}, got {value!r}")


class QueryTraceCapture:
    """Bounded-memory per-query causal trace with tail-biased retention.

    Parameters
    ----------
    tail_threshold_s:
        Retain every completed query with latency at or above this
        threshold. ``None`` (the default) retains all queries, subject
        only to ``max_queries``.
    sample_rate:
        Below-threshold queries are retained when
        ``hashed_uniform(seed, qid) < sample_rate`` — a pure keyed
        hash, deterministic and independent of every simulation RNG
        stream.
    seed:
        Key for the uniform retention hash.
    max_queries:
        Hard cap on retained records; beyond it the lowest-latency
        entries are evicted, uniform-sample entries first.
    """

    def __init__(
        self,
        *,
        tail_threshold_s: Optional[float] = None,
        sample_rate: float = 0.02,
        seed: int = 2020,
        max_queries: int = 10_000,
    ) -> None:
        if tail_threshold_s is not None:
            _check_type("tail_threshold_s", tail_threshold_s)
            if not tail_threshold_s >= 0.0:
                raise ValueError(
                    f"tail_threshold_s must be >= 0, got {tail_threshold_s!r}"
                )
        _check_type("sample_rate", sample_rate)
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        _check_type("max_queries", max_queries, numbers.Integral, "an integer")
        if max_queries < 1:
            raise ValueError(f"max_queries must be >= 1, got {max_queries}")
        from repro.resilience.faults import hashed_uniform

        self._uniform = hashed_uniform
        self.tail_threshold_s = tail_threshold_s
        self.sample_rate = float(sample_rate)
        self.seed = int(seed)
        self.max_queries = int(max_queries)
        self.reset()

    def reset(self) -> None:
        """Clear all state; called automatically at the start of a run."""
        self._arrivals = None
        self._pending: Dict[int, List[AttemptEvent]] = {}
        self.records: Dict[int, QueryTraceRecord] = {}
        self._tail_heap: List[Tuple[float, int]] = []
        self._sample_heap: List[Tuple[float, int]] = []
        self.component_totals: Dict[str, float] = {k: 0.0 for k in COMPONENTS}
        self.shard_totals: Dict[str, Dict[str, float]] = {}
        self.completed = 0
        self.shed_queries = 0
        self.dropped_queries = 0
        self.evicted = 0

    # -- capture hooks (called by the run-log replay) -----------------------

    def begin_run(self, arrivals) -> None:
        """Start a fresh run; ``arrivals`` is the scheduler's arrival
        array (held by reference, never mutated by either side)."""
        self.reset()
        self._arrivals = arrivals

    def attempt(self, qid: int, event: AttemptEvent) -> None:
        """Record one dispatch attempt of query ``qid``."""
        self._pending.setdefault(qid, []).append(event)

    def shed(self, qid: int, at: float) -> None:
        """Query shed before dispatch; its raw events are discarded."""
        self.shed_queries += 1
        self._pending.pop(qid, None)

    def drop(self, qid: int, at: float) -> None:
        """Query dropped after exhausting retries; events discarded."""
        self.dropped_queries += 1
        self._pending.pop(qid, None)

    def settle(self, qid: int, latency: float, completion: float) -> None:
        """Query completed: decompose its chain, fold the components
        into the run aggregates, then apply the retention policy."""
        attempts = self._pending.pop(qid, [])
        attempts.sort(key=lambda a: a.attempt)
        arrival = float(self._arrivals[qid])
        comps, intervals, shard_seconds = decompose_attempts(
            arrival, completion, latency, attempts
        )
        self.completed += 1
        for k in COMPONENTS:
            self.component_totals[k] += comps[k]
        for comp, shards in shard_seconds.items():
            dst = self.shard_totals.setdefault(comp, {})
            for name, secs in shards.items():
                dst[name] = dst.get(name, 0.0) + secs

        if self.tail_threshold_s is None or latency >= self.tail_threshold_s:
            reason = "tail"
        elif self._uniform(self.seed, qid) < self.sample_rate:
            reason = "sample"
        else:
            return
        self.records[qid] = QueryTraceRecord(
            qid=qid,
            arrival=arrival,
            completion=completion,
            latency=latency,
            components=comps,
            intervals=intervals,
            attempts=tuple(attempts),
            shard_seconds=shard_seconds or _NO_SHARDS,
            reason=reason,
        )
        heap = self._tail_heap if reason == "tail" else self._sample_heap
        heapq.heappush(heap, (latency, qid))
        if len(self.records) > self.max_queries:
            self._evict_one()

    # -- retention ----------------------------------------------------------

    def _evict_one(self) -> None:
        for heap in (self._sample_heap, self._tail_heap):
            while heap:
                _, qid = heapq.heappop(heap)
                if qid in self.records:
                    del self.records[qid]
                    self.evicted += 1
                    return

    # -- summaries ----------------------------------------------------------

    def mean_components(self) -> Dict[str, float]:
        """Exact per-query mean of each component over *all* completed
        queries (independent of reservoir retention)."""
        n = max(self.completed, 1)
        return {k: self.component_totals[k] / n for k in COMPONENTS}

    def coverage(self) -> Dict[str, float]:
        """Retention accounting for the sampling-bounds note."""
        return {
            "completed": float(self.completed),
            "retained": float(len(self.records)),
            "evicted": float(self.evicted),
            "shed": float(self.shed_queries),
            "dropped": float(self.dropped_queries),
        }
