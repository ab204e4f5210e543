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

The loop simulates and appends to a
:class:`~repro.telemetry.runlog.RunLog`, and nothing else: attached
sinks (:class:`~repro.telemetry.timeseries.TimeSeries`,
:class:`~repro.telemetry.querytrace.QueryTraceCapture`) and the
Chrome-trace spans are projections of that log, replayed after the
loop in loop order. So settlement does not depend on which sinks are
attached: a batch that finishes on a replica that drops no responses,
inside every member's retry deadline, settles in one array operation,
and any other batch settles member by member. This is the only serving
loop that takes sinks: the plain scheduler is a bare kernel, so an
observed single-server run is this engine with one replica named after
its service model's platform.

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
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro import telemetry
from repro.telemetry import runlog
from repro.resilience.faults import FaultPlan
from repro.resilience.policies import ResiliencePolicy, RetryPolicy
from repro.resilience.server import BatchFaults, Replica, ServerState
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
from repro.telemetry.querytrace import ServiceParts

if TYPE_CHECKING:
    from repro.distserve.gather import GatherOutcome, ShardGatherModel
    from repro.telemetry import TimeSeries
    from repro.telemetry.querytrace import QueryTraceCapture

__all__ = ["ResilientScheduler", "ResilientScheduleResult"]

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


def _window_label(kind: str, w) -> str:
    """A fault window's span label: its kind, with the slowdown
    multiplier or the PCIe bandwidth scale."""
    if kind == "slowdown":
        return f"slowdown x{w.multiplier:g}"
    if kind == "pcie":
        return f"pcie x{w.bandwidth_scale:g}"
    return kind


#: A run's result counts, and its per-fault counts in report order.
_RESULT_COUNTS = (
    "completed", "shed", "dropped", "retries", "timeouts", "hedges",
    "hedge_wins", "failovers", "degraded_queries",
)
_FAULT_COUNTS = (
    "slowdown_batches", "straggler_batches", "pcie_degraded_batches",
    "crashed_batches", "dropped_responses",
)

def _settles_at_once(
    winner: ServerState,
    completion: float,
    first_ready: float,
    retry: Optional[RetryPolicy],
) -> bool:
    """Whether every member of a finished batch completes, so it can
    settle in one array operation: the winning copy drops no responses,
    and the first member (members leave the work queue in ready order)
    meets its retry deadline; rounding is monotone, so all others do."""
    return winner.injector.faults.drops.probability <= 0 and (
        retry is None or completion <= first_ready + retry.deadline_s
    )


def _parts(
    faults: BatchFaults, gout: Optional[GatherOutcome]
) -> ServiceParts:
    """One copy's service breakdown, as the query-trace capture reads it."""
    return ServiceParts(
        base_s=faults.base_s,
        pcie_extra_s=faults.pcie_extra_s,
        slowdown_extra_s=faults.slowdown_extra_s,
        straggler_extra_s=faults.straggler_extra_s,
        gather_s=gout.seconds if gout is not None else 0.0,
        gather_pieces=gout.pieces if gout is not None else (),
    )


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
        # Optional sharded-embedding gather model (repro.distserve):
        # adds the distribution overhead of each batch's gather fan-out
        # to its service time. A colocated single-shard layout adds
        # exactly 0.0, preserving the bit-identical contract.
        self.gather = gather
        # Optional sinks, filled from the run log after the loop, so
        # they never feed back into the simulation.
        self.timeseries = timeseries
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
        grun = self.gather.start_run() if self.gather is not None else None
        # The only observation the loop makes; the sinks are replayed
        # from it after the run.
        log = runlog.RunLog(detail=self.querytrace is not None)

        latencies = np.full(num_queries, np.nan)
        counters = dict.fromkeys(_RESULT_COUNTS, 0)
        fault_counts = dict.fromkeys(_FAULT_COUNTS, 0)

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
                log.requeued.append(head_qid, head_attempt, resume)
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
                            counters["shed"] += 1
                            log.count("shed", start)
                            log.shed.append(len(log.size), m[1], start)
                        else:
                            kept.append(m)
                    members = kept
                    if not members:
                        continue

            b = len(log.size)  # this batch's row in the log
            batch = len(members)

            # -- graceful degradation ---------------------------------------
            degraded = (
                res.degrade is not None
                and server.spec.degraded_model is not None
                and start - head_ready > res.degrade.queue_budget_s
            )
            if degraded:
                counters["degraded_queries"] += batch

            service, faults = server.service_seconds(batch, start, degraded)
            gout = None
            if grun is not None:
                gout = grun.gather(batch, start, detail=log.detail)
                service = service + gout.seconds
            server.note_dispatch()
            finish = start + service
            if faults.slowdown:
                fault_counts["slowdown_batches"] += 1
                log.count("faults.slowdown", start)
            if faults.straggler:
                fault_counts["straggler_batches"] += 1
                log.count("faults.straggler", start)
            if faults.pcie:
                fault_counts["pcie_degraded_batches"] += 1
                log.count("faults.pcie", start)

            # -- crash in flight --------------------------------------------
            crash = server.injector.crash_during(start, finish)
            crash_at = None
            if crash is not None:
                crash_at = max(start, crash.start_s)
                fault_counts["crashed_batches"] += 1
                server.free_at = crash.end_s
                tripped = server.record_failure(crash_at, res.breaker)
                log.count("faults.crash", crash_at)
                log.mark(server.index, crash_at, runlog.CRASHED)
                if tripped:
                    log.mark(server.index, crash_at, runlog.BREAKER_OPEN)
            else:
                server.free_at = finish

            # -- hedging ----------------------------------------------------
            hedge_finish = math.inf
            hedge_server = None
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
                    h_gout = None
                    if grun is not None:
                        h_gout = grun.gather(batch, h_start, detail=log.detail)
                        h_service = h_service + h_gout.seconds
                    hedge_server.note_dispatch()
                    h_finish = h_start + h_service
                    h_crash = hedge_server.injector.crash_during(
                        h_start, h_finish
                    )
                    counters["hedges"] += batch
                    log.count("hedges", h_start, batch)
                    if h_crash is not None:
                        fault_counts["crashed_batches"] += 1
                        hedge_server.free_at = h_crash.end_s
                        h_crash_at = max(h_start, h_crash.start_s)
                        tripped = hedge_server.record_failure(
                            h_crash_at, res.breaker
                        )
                        log.count("faults.crash", h_crash_at)
                        h = hedge_server.index
                        log.mark(h, h_crash_at, runlog.CRASHED)
                        if tripped:
                            log.mark(h, h_crash_at, runlog.BREAKER_OPEN)
                        hedge_server = None
                    else:
                        hedge_server.free_at = h_finish
                        hedge_finish = h_finish
                        log.hedges.append(
                            b, hedge_server.index, h_start, h_service,
                            _parts(h_faults, h_gout) if log.detail else None,
                        )

            primary_ok = crash_at is None
            hedge_ok = hedge_finish < math.inf
            hedge_won = hedge_ok and (not primary_ok or hedge_finish < finish)
            if hedge_won:
                counters["hedge_wins"] += batch
            winner = hedge_server if hedge_won else server
            completion = hedge_finish if hedge_won else finish

            log.batch(
                start, finish if primary_ok else crash_at, batch,
                server.index,
                (runlog.RETRIED if head_attempt > 0 else 0)
                | (runlog.DEGRADED_BATCH if degraded else 0)
                | (0 if primary_ok else runlog.CRASHED_BATCH)
                | (runlog.HEDGE_WON if hedge_won else 0),
            )
            if log.detail:
                log.close.append(batch_close)
                log.parts.append(_parts(faults, gout))
            if primary_ok:
                state = runlog.DEGRADED if degraded else runlog.HEALTHY
                log.mark(server.index, start, state)
            if gout is not None and gout.fanout:
                log.gather_t.append(start)
                log.fanout.append(gout.fanout)
                log.gather_s.append(gout.seconds)
                if gout.hedged:
                    log.count("distserve.hedges", start, gout.hedged)
                if gout.imputed:
                    log.count("distserve.imputed_lookups", start, gout.imputed)
                if gout.cached:
                    log.count("distserve.cached_lookups", start, gout.cached)
                if gout.partial:
                    log.count("faults.partial_gather", start)
                if gout.blocked:
                    log.count("faults.blocked_gather", start)

            # -- per-query settlement ---------------------------------------
            if (primary_ok or hedge_ok) and _settles_at_once(
                winner, completion, members[0][0], res.retry
            ):
                qids = [m[1] for m in members]
                latencies[qids] = completion - arrivals[qids]
                counters["completed"] += batch
                winner.record_success()
                log.settled(completion, qids)
                continue

            settled: List[int] = []
            for ready, qid, attempt in members:
                if not primary_ok and not hedge_ok:
                    kind, at = "crash", crash_at
                elif winner.injector.should_drop(qid, attempt):
                    fault_counts["dropped_responses"] += 1
                    tripped = winner.record_failure(completion, res.breaker)
                    log.count("faults.dropped_response", completion)
                    if tripped:
                        log.mark(winner.index, completion, runlog.BREAKER_OPEN)
                    detect = (
                        ready + res.retry.deadline_s
                        if res.retry is not None
                        else completion
                    )
                    kind, at = "drop_response", max(detect, completion)
                elif (
                    res.retry is not None
                    and completion > ready + res.retry.deadline_s
                ):
                    counters["timeouts"] += 1
                    kind, at = "timeout", ready + res.retry.deadline_s
                else:
                    latencies[qid] = completion - arrivals[qid]
                    counters["completed"] += 1
                    winner.record_success()
                    settled.append(qid)
                    continue
                # The attempt failed at `at`: retry or drop the query.
                retry = (
                    res.retry is not None and attempt < res.retry.max_retries
                )
                log.failed.append(b, qid, attempt, ready, kind, at, not retry)
                if retry:
                    backoff = at + res.retry.backoff_s(attempt)
                    work.push((backoff, qid, attempt + 1))
                    log.requeued.append(qid, attempt + 1, backoff)
                    counters["retries"] += 1
                    log.count("retries", at)
                else:
                    counters["dropped"] += 1
                    log.count("dropped", at)
            log.settled(completion, settled)

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
            batch_sizes=log.size.tolist(),
            breaker_trips=sum(s.breaker_trips for s in servers),
            fault_counts=fault_counts,
            replica_batches={s.name: s.batches for s in servers},
            gather_counts=(
                {k: v for k, v in grun.counts.items() if v}
                if grun is not None
                else {}
            ),
            **counters,
        )

        # -- views: projections of the run log ------------------------------
        names = [s.name for s in servers]
        ts = self.timeseries
        if ts is not None:
            ts.count_many("arrivals", arrivals)
            # Injected windows as active seconds per window, so the
            # monitor ties tail excursions to faults even in windows no
            # batch sampled.
            for s in servers:
                for kind, w in s.injector.faults.windows():
                    ts.count_interval(
                        "faults.window_active_s", w.start_s, w.end_s
                    )
                    if kind == "crash":
                        ts.mark_state_interval(
                            f"replica.{s.name}", w.start_s, w.end_s,
                            "crashed",
                        )
            if grun is not None:
                self.gather.emit_fault_windows(ts)
            log.flush(ts, names, latencies)
        if self.querytrace is not None:
            log.replay_capture(self.querytrace, arrivals, latencies, names)
        if telemetry.enabled():
            self._trace_spans(telemetry.get_tracer(), servers, log)
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

    def _trace_spans(
        self, tracer, servers: List[ServerState], log: runlog.RunLog
    ) -> None:
        """The run's spans: every injected fault window, then each
        batch's successful hedge leg and busy period, in loop order."""
        for s in servers:
            for kind, w in s.injector.faults.windows():
                tracer.add_span(
                    f"{s.name}.{_window_label(kind, w)}", w.start_s,
                    w.end_s - w.start_s, category="resilience.fault",
                    tid=REPLICA_LANE_FAULT, pid=REPLICA_PID_BASE + s.index,
                    process=s.name,
                )
        if self.gather is not None:
            self.gather.trace_fault_windows(tracer)
        hedges = iter(log.hedges)
        hedge = next(hedges, None)
        for b, (start, end, batch, index, flags) in enumerate(zip(
            log.start, log.end, log.size, log.server, log.flags
        )):
            if hedge is not None and hedge[0] == b:
                _, h, h_start, h_service, _ = hedge
                name = servers[h].name
                tracer.add_span(
                    f"{name}.hedge", h_start, h_service,
                    category="resilience.hedge", tid=REPLICA_LANE_HEDGE,
                    pid=REPLICA_PID_BASE + h, process=name, batch=batch,
                )
                hedge = next(hedges, None)
            name = servers[index].name
            tracer.add_span(
                f"{name}.batch", start, end - start,
                category="resilience.server",
                # Retried work gets its own lane so reissues don't
                # overlap first-try serving.
                tid=(
                    REPLICA_LANE_RETRY if flags & runlog.RETRIED
                    else REPLICA_LANE_SERVE
                ),
                pid=REPLICA_PID_BASE + index, process=name,
                batch=batch, degraded=bool(flags & runlog.DEGRADED_BATCH),
                crashed=bool(flags & runlog.CRASHED_BATCH),
            )

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
        for key in ("queries",) + _RESULT_COUNTS + ("breaker_trips",):
            bump(f"resilience.{key}", getattr(result, key))
        for key, value in result.fault_counts.items():
            bump(f"resilience.faults.{key}", value)
        for key, value in result.gather_counts.items():
            bump(f"distserve.{key}", value)
        if len(result.latencies_s):
            registry.histogram(
                "resilience.query_latency_s", exact_cap=0, **labels
            ).observe_many(result.latencies_s)
