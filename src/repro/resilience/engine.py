"""Resilient serving engine: the fault-aware discrete-event scheduler.

Generalizes :class:`~repro.runtime.scheduler.QueryScheduler` from one
perfect server to a fleet of fault-prone replicas with the standard
resilience policies (retries, hedging, circuit-breaker failover,
SLA-aware shedding, graceful degradation) layered on the same dynamic
batching discipline.

Both engines form batches with the same step,
:class:`~repro.runtime.scheduler.BatchFormation`. Pending work is a
:class:`WorkQueue`: first attempts are the sorted arrival array, read
through a cursor, and only retries and parked queries go on a heap.

A batch that finishes on a replica that drops no responses, inside
every member's retry deadline, settles in one array operation; any
other batch, and every batch while a
:class:`~repro.telemetry.querytrace.QueryTraceCapture` is attached,
settles member by member. An attached
:class:`~repro.telemetry.timeseries.TimeSeries` is filled after the
run: the loop logs per-batch columns and the settled queries
(:class:`_SeriesLog`), and the series takes them in through its array
methods, which leave the state per-event calls would.

**Equivalence contract:** with one replica, a null
:class:`~repro.resilience.faults.FaultPlan`, and an empty
:class:`~repro.resilience.policies.ResiliencePolicy`, the engine's
batch formation, float arithmetic, and arrival generation replicate the
plain scheduler's loop operation-for-operation, so results are
*bit-identical* (a tier-1 golden test pins this).

Accounting invariant (property-tested): every issued query ends in
exactly one of completed / shed / dropped, and each completed query
contributes exactly one latency sample — no matter how many times it
was retried or hedged.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.resilience.faults import FaultPlan
from repro.resilience.policies import ResiliencePolicy
from repro.resilience.server import Replica, ServerState
from repro.runtime.scheduler import (
    BatchFormation,
    BatchingPolicy,
    ScheduleResult,
    check_policy,
    poisson_arrivals,
    validate_run,
)
from repro.telemetry.chrome_trace import (
    REPLICA_LANE_FAULT,
    REPLICA_LANE_HEDGE,
    REPLICA_LANE_RETRY,
    REPLICA_LANE_SERVE,
    REPLICA_PID_BASE,
)
from repro.telemetry.querytrace import AttemptEvent, HedgeLeg, ServiceParts

if TYPE_CHECKING:
    from repro.distserve.gather import ShardGatherModel
    from repro.telemetry import TimeSeries
    from repro.telemetry.querytrace import QueryTraceCapture

__all__ = ["ResilientScheduler", "ResilientScheduleResult"]

#: Legacy virtual thread-id base, kept for external readers; exported
#: spans now carry a per-replica *pid* (REPLICA_PID_BASE + index) with
#: lane tids, so replica activity renders as its own named process.
_REPLICA_TID_BASE = 2000


@dataclass
class ResilientScheduleResult(ScheduleResult):
    """Outcome of one resilient simulation.

    Extends :class:`~repro.runtime.scheduler.ScheduleResult`:
    ``latencies_s`` holds only *completed* queries (one sample each, in
    query order); ``queries`` remains the number issued.
    """

    completed: int = 0
    shed: int = 0
    dropped: int = 0
    retries: int = 0
    timeouts: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    failovers: int = 0
    degraded_queries: int = 0
    breaker_trips: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    replica_batches: Dict[str, int] = field(default_factory=dict)
    #: Sharded-gather counters (``repro.distserve``); empty when the
    #: scheduler runs without a gather model.
    gather_counts: Dict[str, float] = field(default_factory=dict)

    @property
    def goodput_qps(self) -> float:
        """Completed (not merely issued) queries per second."""
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    def accounting_ok(self) -> bool:
        """The conservation law every policy combination must obey."""
        return (
            self.completed + self.shed + self.dropped == self.queries
            and len(self.latencies_s) == self.completed
        )

    def rate_scalars(self) -> Dict[str, float]:
        """Flat scalar view for run-ledger records and SLO rules.

        Rates are fractions of *issued* queries, so records taken at
        different query counts stay comparable.
        """
        issued = max(self.queries, 1)
        scalars = {
            "completed": float(self.completed),
            "shed": float(self.shed),
            "dropped": float(self.dropped),
            "shed_rate": self.shed / issued,
            "drop_rate": self.dropped / issued,
            "goodput_qps": self.goodput_qps,
            "retries": float(self.retries),
            "timeouts": float(self.timeouts),
            "hedges": float(self.hedges),
            "hedge_wins": float(self.hedge_wins),
            "failovers": float(self.failovers),
            "degraded_queries": float(self.degraded_queries),
            "breaker_trips": float(self.breaker_trips),
        }
        for key in sorted(self.fault_counts):
            scalars[f"faults.{key}"] = float(self.fault_counts[key])
        for key in sorted(self.gather_counts):
            scalars[f"distserve.{key}"] = float(self.gather_counts[key])
        gathers = self.gather_counts.get("gathers", 0)
        if gathers:
            scalars["distserve.mean_fanout"] = (
                self.gather_counts.get("fanout_rpcs", 0) / gathers
            )
            scalars["distserve.partial_gather_rate"] = (
                self.gather_counts.get("partial_gathers", 0) / gathers
            )
        return scalars


class _Outcome:
    COMPLETED = 0
    SHED = 1
    DROPPED = 2


#: One pending attempt: (ready time, query id, attempt number).
Work = Tuple[float, int, int]


class WorkQueue:
    """Pending attempts, popped in ``(ready, qid, attempt)`` order.

    First attempts are the sorted arrival array, read through a cursor;
    only retries and parked queries go on the heap. Every heap entry
    belongs to a query the cursor has passed, so on a tie in ready time
    the heap entry, with its smaller qid, comes first. Pops come out in
    exactly the order one heap of every attempt would give.
    """

    __slots__ = ("cursor", "heap", "_ready", "_n", "_max_batch")

    def __init__(self, form: BatchFormation) -> None:
        self.cursor = 0
        self.heap: List[Work] = []
        self._ready = form.ready
        self._n = len(form.ready)
        self._max_batch = form.max_batch

    def __bool__(self) -> bool:
        return self.cursor < self._n or bool(self.heap)

    def push(self, work: Work) -> None:
        heapq.heappush(self.heap, work)

    def _heap_first(self) -> bool:
        """Whether the next attempt in order is on the heap."""
        heap = self.heap
        if not heap:
            return False
        c = self.cursor
        return c == self._n or heap[0] < (self._ready[c], c, 0)

    def pop(self) -> Work:
        if self._heap_first():
            return heapq.heappop(self.heap)
        c = self.cursor
        work = (self._ready[c], c, 0)
        self.cursor = c + 1
        return work

    def fill(self, members: List[Work], dispatch_at: float, hi: int) -> None:
        """Append the work ready by ``dispatch_at`` to ``members``, in
        order, until the batch holds ``max_batch``.

        ``hi`` is :meth:`BatchFormation.window`'s end of the first
        attempts from the cursor that fit.
        """
        heap = self.heap
        if not heap or heap[0][0] > dispatch_at:
            # No pending retry in the window: first attempts only, as
            # one slice.
            lo = self.cursor
            members.extend(
                (ready, qid, 0)
                for qid, ready in enumerate(self._ready[lo:hi].tolist(), lo)
            )
            self.cursor = hi
            return
        while len(members) < self._max_batch and self:
            if self._heap_first():
                ready = heap[0][0]
            else:
                ready = self._ready[self.cursor]
            if ready > dispatch_at:
                return
            members.append(self.pop())


#: Replica health states, by the codes :class:`_SeriesLog` stores.
_STATES = ("healthy", "degraded", "crashed", "breaker_open")
_HEALTHY, _DEGRADED, _CRASHED, _BREAKER_OPEN = range(len(_STATES))


#: Settled queries per ``latency_s`` ingest call in :meth:`_SeriesLog.flush`.
_LATENCY_CHUNK = 4096


def _column(values: array) -> np.ndarray:
    """A read-only array view of a logged column."""
    return np.frombuffer(values, dtype=values.typecode)


class _SeriesLog:
    """What one run hands its ``TimeSeries``, logged in emission order.

    Per batch: start, span end (finish, or the crash instant), size and
    server. Per state mark: server, time and state code. Per counter
    event: time and amount, by track. Per gathered batch with a
    fan-out: start, fan-out and gather seconds. Per settled batch:
    completion time and the settled query ids, whose latencies are read
    back from the result array. :meth:`flush` replays all of it through
    the series' array methods.
    """

    __slots__ = (
        "start", "end", "size", "server",
        "mark_server", "mark_t", "mark_state",
        "counts",
        "gather_t", "fanout", "gather_s",
        "done_t", "done_n", "done_qids",
    )

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.server = array("q")
        self.mark_server = array("q")
        self.mark_t = array("d")
        self.mark_state = array("q")
        self.counts: Dict[str, Tuple[array, array]] = {}
        self.gather_t = array("d")
        self.fanout = array("q")
        self.gather_s = array("d")
        self.done_t = array("d")
        self.done_n = array("q")
        self.done_qids = array("q")

    def count(self, name: str, t: float, amount: int = 1) -> None:
        track = self.counts.get(name)
        if track is None:
            track = self.counts[name] = (array("d"), array("d"))
        track[0].append(t)
        track[1].append(amount)

    def mark(self, server: int, t: float, state: int) -> None:
        self.mark_server.append(server)
        self.mark_t.append(t)
        self.mark_state.append(state)

    def settled(self, completion: float, qids: List[int]) -> None:
        self.done_t.append(completion)
        self.done_n.append(len(qids))
        self.done_qids.extend(qids)

    def flush(
        self,
        ts: "TimeSeries",
        servers: List[ServerState],
        latencies: np.ndarray,
    ) -> None:
        start, end = _column(self.start), _column(self.end)
        size = _column(self.size)
        ts.count_each("batches", start)
        ts.sample_each("batch_occupancy", start, size)
        # The queue a batch leaves is its members after shedding.
        ts.sample_each("queue_depth", start, size)
        ts.count_interval_each("busy_s", start, end)
        server = _column(self.server)
        marked, mark_t = _column(self.mark_server), _column(self.mark_t)
        states = _column(self.mark_state)
        for s in servers:
            mine = server == s.index
            ts.count_interval_each(
                f"replica.{s.name}.busy_s", start[mine], end[mine]
            )
            mine = marked == s.index
            ts.mark_state_each(
                f"replica.{s.name}", mark_t[mine],
                [_STATES[code] for code in states[mine].tolist()],
            )
        for name, (times, amounts) in self.counts.items():
            ts.count_each(name, _column(times), _column(amounts))
        if self.gather_t:
            ts.sample_each(
                "distserve.fanout", _column(self.gather_t),
                _column(self.fanout),
            )
            ts.observe_each(
                "distserve.gather_s", _column(self.gather_t),
                _column(self.gather_s),
            )
        done_t = _column(self.done_t)
        done_n = _column(self.done_n)
        # One count per settled query; the per-batch counts are whole
        # numbers, so adding them a batch at a time gives the same sums.
        ts.count_each("completions", done_t, done_n)
        # In chunks, so no temporary is as long as the run; consecutive
        # calls record what one call would.
        qids = _column(self.done_qids)
        ends = np.cumsum(done_n)
        for lo in range(0, qids.size, _LATENCY_CHUNK):
            at = np.arange(lo, min(lo + _LATENCY_CHUNK, qids.size))
            ts.observe_each(
                "latency_s", done_t[np.searchsorted(ends, at, "right")],
                latencies[qids[at]],
            )


class ResilientScheduler:
    """Discrete-event simulation of a replicated, fault-prone fleet.

    ``replicas`` are tried in order: the first is the primary, later
    entries are failover / hedge targets (heterogeneous platforms are
    the interesting case — e.g. a T4 primary with a Broadwell standby).
    """

    def __init__(
        self,
        replicas: Sequence[Replica],
        policy: BatchingPolicy,
        resilience: Optional[ResiliencePolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        seed: int = 2020,
        timeseries: Optional["TimeSeries"] = None,
        gather: Optional["ShardGatherModel"] = None,
        querytrace: Optional["QueryTraceCapture"] = None,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one replica")
        for k, replica in enumerate(replicas):
            if not isinstance(replica, Replica):
                raise TypeError(
                    f"replicas[{k}] must be a Replica, got {replica!r}"
                )
        check_policy(policy)
        names = [r.name for r in replicas]
        if len(set(names)) != len(names):
            raise ValueError(f"replica names must be unique, got {names}")
        self.replicas = list(replicas)
        self.policy = policy
        self.resilience = resilience or ResiliencePolicy.none()
        self.fault_plan = fault_plan or FaultPlan.none()
        self.seed = seed
        # Optional windowed sink; emission never feeds back into the
        # simulation (same bit-identical contract as QueryScheduler).
        self.timeseries = timeseries
        # Optional sharded-embedding gather model (repro.distserve):
        # adds the distribution overhead of each batch's gather fan-out
        # to its service time. A colocated single-shard layout adds
        # exactly 0.0, preserving the bit-identical contract.
        self.gather = gather
        # Optional per-query causal trace (repro explain substrate);
        # capture only copies floats the loop already computed, so the
        # bit-identical contract extends to it — pinned in tests.
        self.querytrace = querytrace

    # -- simulation ----------------------------------------------------------

    def run(
        self, arrival_qps: float, num_queries: int = 2000
    ) -> ResilientScheduleResult:
        """Simulate ``num_queries`` Poisson arrivals at ``arrival_qps``."""
        validate_run(self.policy, arrival_qps, num_queries)
        arrivals = poisson_arrivals(
            np.random.default_rng(self.seed), arrival_qps, num_queries
        )

        servers = [
            ServerState(spec, idx, self.fault_plan)
            for idx, spec in enumerate(self.replicas)
        ]
        res = self.resilience
        policy = self.policy
        tracer = telemetry.get_tracer()
        tracing = telemetry.enabled()
        if tracing:
            self._trace_fault_windows(tracer, servers)
        grun = self.gather.start_run() if self.gather is not None else None
        if grun is not None and tracing:
            self.gather.trace_fault_windows(tracer)
        ts = self.timeseries
        log = _SeriesLog() if ts is not None else None
        qt = self.querytrace
        if qt is not None:
            qt.begin_run(arrivals)

        latencies = np.full(num_queries, np.nan)
        outcome = np.full(num_queries, -1, dtype=np.int8)
        batch_sizes: List[int] = []
        counters = {
            "retries": 0, "timeouts": 0, "hedges": 0, "hedge_wins": 0,
            "failovers": 0, "degraded": 0, "shed": 0, "dropped": 0,
            "completed": 0,
            "slowdown_batches": 0, "straggler_batches": 0,
            "pcie_batches": 0, "crashed_batches": 0, "dropped_responses": 0,
        }

        # Pending work in (ready time, query id, attempt) order. Attempt
        # 0 entries are the arrivals themselves; retries re-enter with a
        # later ready time. Ties resolve in query order, matching the
        # plain scheduler's scan.
        form = BatchFormation(arrivals, policy)
        work = WorkQueue(form)
        arrived = form.ready  # arrivals as Python floats

        while work:
            head_ready, head_qid, head_attempt = work.pop()

            server = self._route(servers, head_ready)
            if server is None:
                # Whole fleet is down/tripped: park the query until the
                # earliest recovery and try again.
                resume = min(s.next_available(head_ready) for s in servers)
                if resume <= head_ready:
                    resume = head_ready + 1e-9
                work.push((resume, head_qid, head_attempt))
                continue

            # -- batch formation (BatchFormation, as in QueryScheduler) -----
            dispatch_at, hi = form.window(
                head_ready, server.free_at, work.cursor, policy.max_batch - 1
            )
            members: List[Work] = [(head_ready, head_qid, head_attempt)]
            work.fill(members, dispatch_at, hi)
            # batch_close: the instant the batch stopped admitting
            # members, taken before shedding mutates `members`.
            batch_close, start = form.start(
                dispatch_at, len(members), members[-1][0], server.free_at
            )

            if server.index != 0:
                counters["failovers"] += len(members)

            # -- SLA-aware load shedding ------------------------------------
            if res.shed is not None:
                floor_s = server.spec.service_model.seconds(1)
                # Rounding is monotone: if the earliest arrival is not
                # shed, no member is.
                if start + floor_s > (
                    min(arrived[m[1]] for m in members) + res.shed.deadline_s
                ):
                    kept = []
                    for m in members:
                        if start + floor_s > arrived[m[1]] + res.shed.deadline_s:
                            outcome[m[1]] = _Outcome.SHED
                            counters["shed"] += 1
                            if log is not None:
                                log.count("shed", start)
                            if qt is not None:
                                qt.shed(m[1], start)
                        else:
                            kept.append(m)
                    members = kept
                    if not members:
                        continue

            batch = len(members)

            # -- graceful degradation ---------------------------------------
            degraded = (
                res.degrade is not None
                and server.spec.degraded_model is not None
                and start - head_ready > res.degrade.queue_budget_s
            )
            if degraded:
                counters["degraded"] += batch

            service, faults = server.service_seconds(batch, start, degraded)
            gout = None
            if grun is not None:
                gout = grun.gather(batch, start, detail=qt is not None)
                service = service + gout.seconds
            server.note_dispatch()
            finish = start + service
            if faults.slowdown:
                counters["slowdown_batches"] += 1
                if log is not None:
                    log.count("faults.slowdown", start)
            if faults.straggler:
                counters["straggler_batches"] += 1
                if log is not None:
                    log.count("faults.straggler", start)
            if faults.pcie:
                counters["pcie_batches"] += 1
                if log is not None:
                    log.count("faults.pcie", start)

            # -- crash in flight --------------------------------------------
            crash = server.injector.crash_during(start, finish)
            crash_at = None
            if crash is not None:
                crash_at = max(start, crash.start_s)
                counters["crashed_batches"] += 1
                server.free_at = crash.end_s
                tripped = server.record_failure(crash_at, res.breaker)
                if log is not None:
                    log.count("faults.crash", crash_at)
                    log.mark(server.index, crash_at, _CRASHED)
                    if tripped:
                        log.mark(server.index, crash_at, _BREAKER_OPEN)
            else:
                server.free_at = finish

            # -- hedging ----------------------------------------------------
            hedge_finish = math.inf
            hedge_server = None
            h_start = 0.0
            h_faults = None
            h_gout = None
            if (
                res.hedge is not None
                and len(servers) > 1
                and (crash_at is not None
                     or finish > head_ready + res.hedge.delay_s)
            ):
                hedge_at = head_ready + res.hedge.delay_s
                hedge_server = self._route(
                    servers, hedge_at, exclude=server.index
                )
                if hedge_server is not None:
                    # The duplicate carries the whole batch, so it cannot
                    # be issued before the last member exists — without
                    # this bound a fast hedge could "complete" a query
                    # before it arrived.
                    h_start = max(hedge_at, members[-1][0],
                                  hedge_server.free_at)
                    h_service, h_faults = hedge_server.service_seconds(
                        batch, h_start
                    )
                    if grun is not None:
                        h_gout = grun.gather(batch, h_start,
                                             detail=qt is not None)
                        h_service = h_service + h_gout.seconds
                    hedge_server.note_dispatch()
                    h_finish = h_start + h_service
                    h_crash = hedge_server.injector.crash_during(
                        h_start, h_finish
                    )
                    counters["hedges"] += batch
                    if log is not None:
                        log.count("hedges", h_start, batch)
                    if h_crash is not None:
                        counters["crashed_batches"] += 1
                        hedge_server.free_at = h_crash.end_s
                        h_crash_at = max(h_start, h_crash.start_s)
                        tripped = hedge_server.record_failure(
                            h_crash_at, res.breaker
                        )
                        if log is not None:
                            log.count("faults.crash", h_crash_at)
                            log.mark(hedge_server.index, h_crash_at, _CRASHED)
                            if tripped:
                                log.mark(
                                    hedge_server.index, h_crash_at,
                                    _BREAKER_OPEN,
                                )
                        hedge_server = None
                    else:
                        hedge_server.free_at = h_finish
                        hedge_finish = h_finish
                        if tracing:
                            tracer.add_span(
                                f"{hedge_server.name}.hedge", h_start,
                                h_service,
                                category="resilience.hedge",
                                tid=REPLICA_LANE_HEDGE,
                                pid=REPLICA_PID_BASE + hedge_server.index,
                                process=hedge_server.name,
                                batch=batch,
                            )

            batch_sizes.append(batch)
            if tracing:
                span_end = crash_at if crash_at is not None else finish
                # Retried work (a batch whose head attempt > 0) gets its
                # own lane so reissues don't overlap first-try serving.
                lane = (
                    REPLICA_LANE_RETRY if head_attempt > 0
                    else REPLICA_LANE_SERVE
                )
                tracer.add_span(
                    f"{server.name}.batch", start, span_end - start,
                    category="resilience.server",
                    tid=lane,
                    pid=REPLICA_PID_BASE + server.index,
                    process=server.name,
                    batch=batch, degraded=degraded,
                    crashed=crash_at is not None,
                )
            if log is not None:
                log.start.append(start)
                log.end.append(crash_at if crash_at is not None else finish)
                log.size.append(batch)
                log.server.append(server.index)
                if crash_at is None:
                    log.mark(
                        server.index, start,
                        _DEGRADED if degraded else _HEALTHY,
                    )
                if gout is not None and gout.fanout:
                    log.gather_t.append(start)
                    log.fanout.append(gout.fanout)
                    log.gather_s.append(gout.seconds)
                    if gout.hedged:
                        log.count("distserve.hedges", start, gout.hedged)
                    if gout.imputed:
                        log.count(
                            "distserve.imputed_lookups", start, gout.imputed
                        )
                    if gout.cached:
                        log.count(
                            "distserve.cached_lookups", start, gout.cached
                        )
                    if gout.partial:
                        log.count("faults.partial_gather", start)
                    if gout.blocked:
                        log.count("faults.blocked_gather", start)

            # -- per-query settlement ---------------------------------------
            primary_ok = crash_at is None
            hedge_ok = hedge_finish < math.inf
            hedge_won = hedge_ok and (not primary_ok or hedge_finish < finish)
            if hedge_won:
                counters["hedge_wins"] += batch
            winner = hedge_server if hedge_won else server
            completion = hedge_finish if hedge_won else finish

            if qt is not None:
                # Shared per-batch capture state: copies of floats the
                # loop already computed, assembled once per batch.
                qt_lane = (
                    REPLICA_LANE_RETRY if head_attempt > 0
                    else REPLICA_LANE_SERVE
                )
                qt_parts = ServiceParts(
                    base_s=faults.base_s,
                    pcie_extra_s=faults.pcie_extra_s,
                    slowdown_extra_s=faults.slowdown_extra_s,
                    straggler_extra_s=faults.straggler_extra_s,
                    gather_s=gout.seconds if gout is not None else 0.0,
                    gather_pieces=gout.pieces if gout is not None else (),
                )
                qt_hedge = None
                if hedge_ok and hedge_server is not None:
                    qt_hedge = HedgeLeg(
                        start=h_start,
                        server=hedge_server.name,
                        server_index=hedge_server.index,
                        parts=ServiceParts(
                            base_s=h_faults.base_s,
                            pcie_extra_s=h_faults.pcie_extra_s,
                            slowdown_extra_s=h_faults.slowdown_extra_s,
                            straggler_extra_s=h_faults.straggler_extra_s,
                            gather_s=(
                                h_gout.seconds if h_gout is not None else 0.0
                            ),
                            gather_pieces=(
                                h_gout.pieces if h_gout is not None else ()
                            ),
                        ),
                    )

                def qt_attempt(
                    qid: int, attempt: int, ready: float,
                    kind: str, end: float,
                ) -> None:
                    qt.attempt(qid, AttemptEvent(
                        attempt=attempt,
                        ready=ready,
                        batch_close=batch_close,
                        start=start,
                        end=end,
                        outcome=kind,
                        server=server.name,
                        server_index=server.index,
                        lane=qt_lane,
                        parts=qt_parts,
                        hedge=qt_hedge,
                        hedge_won=hedge_won,
                    ))

            if (
                qt is None
                and (primary_ok or hedge_ok)
                and winner.injector.faults.drops.probability <= 0
                and (
                    res.retry is None
                    # Members leave the work queue in ready order, so
                    # the first has the earliest deadline; rounding is
                    # monotone, so no member times out either.
                    or completion <= members[0][0] + res.retry.deadline_s
                )
            ):
                # Every member completes: settle the batch at once.
                qids = [m[1] for m in members]
                latencies[qids] = completion - arrivals[qids]
                outcome[qids] = _Outcome.COMPLETED
                counters["completed"] += batch
                winner.record_success()
                if log is not None:
                    log.settled(completion, qids)
                continue

            settled: List[int] = []
            for ready, qid, attempt in members:
                if not primary_ok and not hedge_ok:
                    if qt is not None:
                        qt_attempt(qid, attempt, ready, "crash", crash_at)
                    self._fail(
                        work, outcome, counters, qid, attempt, crash_at, res,
                        log, qt,
                    )
                    continue
                if winner.injector.should_drop(qid, attempt):
                    counters["dropped_responses"] += 1
                    tripped = winner.record_failure(completion, res.breaker)
                    if log is not None:
                        log.count("faults.dropped_response", completion)
                        if tripped:
                            log.mark(winner.index, completion, _BREAKER_OPEN)
                    detect = (
                        ready + res.retry.deadline_s
                        if res.retry is not None
                        else completion
                    )
                    if qt is not None:
                        qt_attempt(
                            qid, attempt, ready, "drop_response",
                            max(detect, completion),
                        )
                    self._fail(
                        work, outcome, counters, qid, attempt,
                        max(detect, completion), res, log, qt,
                    )
                    continue
                if (
                    res.retry is not None
                    and completion > ready + res.retry.deadline_s
                ):
                    counters["timeouts"] += 1
                    if qt is not None:
                        qt_attempt(
                            qid, attempt, ready, "timeout",
                            ready + res.retry.deadline_s,
                        )
                    self._fail(
                        work, outcome, counters, qid, attempt,
                        ready + res.retry.deadline_s, res, log, qt,
                    )
                    continue
                latencies[qid] = completion - arrivals[qid]
                outcome[qid] = _Outcome.COMPLETED
                counters["completed"] += 1
                winner.record_success()
                settled.append(qid)
                if qt is not None:
                    qt_attempt(qid, attempt, ready, "completed", completion)
                    qt.settle(qid, float(latencies[qid]), completion)
            if log is not None and settled:
                log.settled(completion, settled)

        if ts is not None:
            ts.count_many("arrivals", arrivals)
            self._emit_fault_windows(ts, servers)
            if grun is not None:
                self.gather.emit_fault_windows(ts)
            log.flush(ts, servers, latencies)
        end = max(s.free_at for s in servers)
        # The stream starts at 0: (end - first arrival) + first gap, in
        # this order so the float sum stays bit-identical.
        first_gap = arrivals[0]
        duration = max(float(end - first_gap + first_gap), 0.0)
        done = latencies[~np.isnan(latencies)]
        result = ResilientScheduleResult(
            queries=num_queries,
            duration_s=duration,
            latencies_s=done,
            batch_sizes=batch_sizes,
            completed=counters["completed"],
            shed=counters["shed"],
            dropped=counters["dropped"],
            retries=counters["retries"],
            timeouts=counters["timeouts"],
            hedges=counters["hedges"],
            hedge_wins=counters["hedge_wins"],
            failovers=counters["failovers"],
            degraded_queries=counters["degraded"],
            breaker_trips=sum(s.breaker_trips for s in servers),
            fault_counts={
                "slowdown_batches": counters["slowdown_batches"],
                "straggler_batches": counters["straggler_batches"],
                "pcie_degraded_batches": counters["pcie_batches"],
                "crashed_batches": counters["crashed_batches"],
                "dropped_responses": counters["dropped_responses"],
            },
            replica_batches={s.name: s.batches for s in servers},
            gather_counts=(
                {k: v for k, v in grun.counts.items() if v}
                if grun is not None
                else {}
            ),
        )
        if telemetry.enabled():
            self._record_metrics(result)
        return result

    # -- helpers -------------------------------------------------------------

    def _route(
        self,
        servers: List[ServerState],
        t: float,
        exclude: Optional[int] = None,
    ) -> Optional[ServerState]:
        """First replica routable at ``t``, in fleet order."""
        for s in servers:
            if s.index != exclude and s.available(t):
                return s
        return None

    def _fail(
        self,
        work: WorkQueue,
        outcome: np.ndarray,
        counters: Dict[str, int],
        qid: int,
        attempt: int,
        at: float,
        res: ResiliencePolicy,
        log: Optional[_SeriesLog] = None,
        qt: Optional["QueryTraceCapture"] = None,
    ) -> None:
        """One attempt failed at ``at``: schedule a retry or drop the query."""
        if res.retry is not None and attempt < res.retry.max_retries:
            work.push((at + res.retry.backoff_s(attempt), qid, attempt + 1))
            counters["retries"] += 1
            if log is not None:
                log.count("retries", at)
        else:
            outcome[qid] = _Outcome.DROPPED
            counters["dropped"] += 1
            if log is not None:
                log.count("dropped", at)
            if qt is not None:
                qt.drop(qid, at)

    def _trace_fault_windows(self, tracer, servers: List[ServerState]) -> None:
        for s in servers:
            pid = REPLICA_PID_BASE + s.index
            faults = s.injector.faults
            for w in faults.slowdowns:
                tracer.add_span(
                    f"{s.name}.slowdown x{w.multiplier:g}", w.start_s,
                    w.end_s - w.start_s, category="resilience.fault",
                    tid=REPLICA_LANE_FAULT, pid=pid, process=s.name,
                )
            for w in faults.crashes:
                tracer.add_span(
                    f"{s.name}.crash", w.start_s, w.end_s - w.start_s,
                    category="resilience.fault",
                    tid=REPLICA_LANE_FAULT, pid=pid, process=s.name,
                )
            for w in faults.pcie:
                tracer.add_span(
                    f"{s.name}.pcie x{w.bandwidth_scale:g}", w.start_s,
                    w.end_s - w.start_s, category="resilience.fault",
                    tid=REPLICA_LANE_FAULT, pid=pid, process=s.name,
                )

    def _emit_fault_windows(
        self, ts: "TimeSeries", servers: List[ServerState]
    ) -> None:
        """Record injected fault windows as per-window active seconds.

        ``faults.window_active_s`` integrates how much of each window
        lies inside *any* injected window, so the monitor can correlate
        tail excursions with injected faults even in windows where no
        dispatched batch happened to sample the fault.
        """
        for s in servers:
            faults = s.injector.faults
            for w in faults.slowdowns:
                ts.count_interval("faults.window_active_s", w.start_s, w.end_s)
            for w in faults.crashes:
                ts.count_interval("faults.window_active_s", w.start_s, w.end_s)
                ts.mark_state_interval(
                    f"replica.{s.name}", w.start_s, w.end_s, "crashed"
                )
            for w in faults.pcie:
                ts.count_interval("faults.window_active_s", w.start_s, w.end_s)

    def _record_metrics(self, result: ResilientScheduleResult) -> None:
        registry = telemetry.get_registry()
        primary = self.replicas[0]
        labels = dict(
            model=primary.service_model.model,
            platform=primary.service_model.platform,
        )

        def bump(name: str, amount: float) -> None:
            if amount:
                registry.counter(name, **labels).inc(amount)

        registry.counter("resilience.runs", **labels).inc()
        bump("resilience.queries", result.queries)
        bump("resilience.completed", result.completed)
        bump("resilience.shed", result.shed)
        bump("resilience.dropped", result.dropped)
        bump("resilience.retries", result.retries)
        bump("resilience.timeouts", result.timeouts)
        bump("resilience.hedges", result.hedges)
        bump("resilience.hedge_wins", result.hedge_wins)
        bump("resilience.failovers", result.failovers)
        bump("resilience.degraded_queries", result.degraded_queries)
        bump("resilience.breaker_trips", result.breaker_trips)
        for key, value in result.fault_counts.items():
            bump(f"resilience.faults.{key}", value)
        for key, value in result.gather_counts.items():
            bump(f"distserve.{key}", value)
        if len(result.latencies_s):
            registry.histogram(
                "resilience.query_latency_s", exact_cap=0, **labels
            ).observe_many(result.latencies_s)
