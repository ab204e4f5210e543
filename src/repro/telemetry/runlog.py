"""The run log: what one serving run did, appended in loop order.

The resilient engine's loop observes a run only by appending to a
:class:`RunLog`. Every view is a projection replayed after the loop, in
loop order: :meth:`RunLog.flush` fills a ``TimeSeries``,
:meth:`RunLog.replay_capture` feeds a ``QueryTraceCapture`` (the plain
``QueryScheduler``'s too, through :meth:`RunLog.of_plain_run`), and
the engine replays its trace spans from the per-batch columns.

Per-member rows are sparse: only requeued work (retried, or parked
while the fleet was down) and failed attempts get one; any other
settled query ran attempt 0, ready at its arrival.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.telemetry.chrome_trace import REPLICA_LANE_RETRY, REPLICA_LANE_SERVE
from repro.telemetry.querytrace import AttemptEvent, HedgeLeg, ServiceParts

if TYPE_CHECKING:
    from repro.telemetry import TimeSeries
    from repro.telemetry.querytrace import QueryTraceCapture

__all__ = ["RunLog"]

#: Replica health states, by the codes :meth:`RunLog.mark` stores.
STATES = ("healthy", "degraded", "crashed", "breaker_open")
HEALTHY, DEGRADED, CRASHED, BREAKER_OPEN = range(len(STATES))

#: Per-batch flag bits: the head was a retry (the batch runs on the
#: retry lane), the batch ran the degraded model, it crashed in flight,
#: its hedge copy won.
RETRIED, DEGRADED_BATCH, CRASHED_BATCH, HEDGE_WON = 1, 2, 4, 8

#: Settled queries per ``latency_s`` ingest call in :meth:`RunLog.flush`.
_LATENCY_CHUNK = 4096


def _column(values: array) -> np.ndarray:
    """A read-only array view of a logged column."""
    return np.frombuffer(values, dtype=values.typecode)


class _Rows:
    """Sparse rows kept as one column per field: a typed array, or a
    list for an ``O`` field. A row costs no Python object of its own."""

    __slots__ = ("columns",)

    def __init__(self, typecodes: str) -> None:
        self.columns = tuple(
            [] if code == "O" else array(code) for code in typecodes
        )

    def append(self, *row) -> None:
        for column, value in zip(self.columns, row):
            column.append(value)

    def __iter__(self):
        return zip(*self.columns)


class RunLog:
    """One run's batches, settlements and side events, in loop order.

    Per batch: start, span end (finish, or the crash instant), size,
    server, flags, completion time and the query ids that settled there
    (none if every member failed), whose latencies are read back from
    the result array; with ``detail`` (a capture is attached) also the
    close time and the :class:`ServiceParts`. Sparse rows: successful
    hedge legs, failed attempts, shed and requeued work, replica state
    marks, counter events by track, and gathered batches with a
    fan-out.
    """

    __slots__ = (
        "detail",
        "start", "end", "size", "server", "flags", "close", "parts",
        "done_t", "done_n", "done_qids",
        "hedges", "failed", "shed", "requeued",
        "mark_server", "mark_t", "mark_state", "counts",
        "gather_t", "fanout", "gather_s",
    )

    def __init__(self, detail: bool = False) -> None:
        self.detail = detail
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.server = array("q")
        self.flags = array("b")
        self.close = array("d")
        self.parts: List[ServiceParts] = []
        self.done_t = array("d")
        self.done_n = array("q")
        self.done_qids = array("q")
        #: (batch, server, start, service seconds, parts or None)
        self.hedges = _Rows("qqddO")
        #: (batch, qid, attempt, ready, outcome, end, dropped)
        self.failed = _Rows("qqqdOdb")
        #: (index of the next batch, qid, time)
        self.shed = _Rows("qqd")
        #: (qid, attempt, ready) of each retried or parked query
        self.requeued = _Rows("qqd")
        self.mark_server = array("q")
        self.mark_t = array("d")
        self.mark_state = array("q")
        self.counts: Dict[str, Tuple[array, array]] = {}
        self.gather_t = array("d")
        self.fanout = array("q")
        self.gather_s = array("d")

    @classmethod
    def of_plain_run(
        cls, arrivals, batch_sizes, starts, finishes, service, max_batch
    ) -> "RunLog":
        """The log of a single-server run with no faults: every batch
        settles whole at its finish, one after another."""
        log = cls(detail=True)
        sizes = np.asarray(batch_sizes)
        n = len(batch_sizes)
        log.start = starts
        log.size = array("q", batch_sizes)
        log.server = array("q", bytes(8 * n))
        log.flags = array("b", bytes(n))
        # A batch that did not fill starts at its dispatch_at.
        close = np.where(
            sizes == max_batch, arrivals[np.cumsum(sizes) - 1],
            np.frombuffer(starts),
        )
        log.close.frombytes(close.tobytes())
        log.parts = [ServiceParts(base_s=service[b]) for b in batch_sizes]
        log.done_t.frombytes(finishes.tobytes())
        log.done_n = log.size
        log.done_qids = array("q", range(len(arrivals)))
        return log

    # -- appends (the loop) ---------------------------------------------------

    def batch(
        self, start: float, end: float, size: int, server: int, flags: int
    ) -> None:
        self.start.append(start)
        self.end.append(end)
        self.size.append(size)
        self.server.append(server)
        self.flags.append(flags)

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

    # -- projections (after the loop) -----------------------------------------

    def flush(
        self, ts: "TimeSeries", names: Sequence[str], latencies: np.ndarray
    ) -> None:
        """Replay the run into ``ts`` through its array methods; the
        state equals the one per-event calls in loop order would
        leave."""
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
        for index, name in enumerate(names):
            mine = server == index
            ts.count_interval_each(
                f"replica.{name}.busy_s", start[mine], end[mine]
            )
            mine = marked == index
            ts.mark_state_each(
                f"replica.{name}", mark_t[mine],
                [STATES[code] for code in states[mine].tolist()],
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
        some = done_n > 0
        ts.count_each("completions", done_t[some], done_n[some])
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

    def replay_capture(
        self,
        capture: "QueryTraceCapture",
        arrivals: np.ndarray,
        latencies: np.ndarray,
        names: Sequence[str],
    ) -> None:
        """Feed ``capture`` every attempt, shed, drop and settlement,
        batch by batch in loop order (the log needs ``detail``).

        Within a batch the failed attempts go before the settled ones;
        each query's events and the order of settlements are the loop's,
        so the capture ends in the state inline calls would leave.
        """
        capture.begin_run(arrivals)
        # Python floats, without copying n-length arrays.
        ready = memoryview(arrivals)
        settled = memoryview(latencies)
        # A settled query ran the attempt it was last requeued with.
        requeued = {qid: (attempt, t) for qid, attempt, t in self.requeued}
        hedges = {
            b: HedgeLeg(start=t, server=names[s], server_index=s, parts=parts)
            for b, s, t, _, parts in self.hedges
        }
        sheds, fails = iter(self.shed), iter(self.failed)
        shed, fail = next(sheds, None), next(fails, None)
        qids = memoryview(self.done_qids)
        pos = 0
        batches = zip(
            self.start, self.server, self.flags, self.close, self.parts,
            self.done_t, self.done_n,
        )
        for b, (start, server, flags, close, parts, completion, n) in (
            enumerate(batches)
        ):
            while shed is not None and shed[0] <= b:
                capture.shed(shed[1], shed[2])
                shed = next(sheds, None)
            name = names[server]
            lane = (
                REPLICA_LANE_RETRY if flags & RETRIED else REPLICA_LANE_SERVE
            )
            hedge = hedges.get(b)
            won = bool(flags & HEDGE_WON)
            while fail is not None and fail[0] == b:
                _, qid, attempt, t, outcome, end, dropped = fail
                capture.attempt(qid, AttemptEvent(
                    attempt, t, close, start, end, outcome, name,
                    server, lane, parts, hedge, won,
                ))
                if dropped:
                    capture.drop(qid, end)
                fail = next(fails, None)
            for qid in qids[pos:pos + n]:
                hit = requeued.get(qid)
                attempt, t = hit if hit is not None else (0, ready[qid])
                capture.attempt(qid, AttemptEvent(
                    attempt, t, close, start, completion, "completed", name,
                    server, lane, parts, hedge, won,
                ))
                capture.settle(qid, settled[qid], completion)
            pos += n
        while shed is not None:
            capture.shed(shed[1], shed[2])
            shed = next(sheds, None)
