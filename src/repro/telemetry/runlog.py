"""The run log: what one serving run did, appended in loop order.

The resilient engine's loop observes a run only by appending to a
:class:`RunLog`. Every view is a projection replayed after the loop, in
loop order: :meth:`RunLog.flush` fills a ``TimeSeries``,
:meth:`RunLog.replay_capture` fills a ``QueryTraceCapture`` in
chunks of settled rows gathered from the columns, and the engine
replays its trace spans from the per-batch columns. The engine is the
only serving loop that takes sinks: the plain ``QueryScheduler`` is a
bare kernel, and an observed single-server run is a one-replica engine.

Per-member rows are sparse: only requeued work (retried, or parked
while the fleet was down) and failed attempts get one; any other
settled query ran attempt 0, ready at its arrival.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.telemetry.chrome_trace import REPLICA_LANE_RETRY, REPLICA_LANE_SERVE
from repro.telemetry.querytrace import (
    AttemptEvent, HedgeLeg, ServiceParts, SettledRows,
)

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

#: Settled queries per :meth:`QueryTraceCapture.settle_rows` call in
#: :meth:`RunLog.replay_capture`: the replay's working set is this many
#: rows, whatever the run's length.
_SETTLE_CHUNK = 1024


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

    def __len__(self) -> int:
        return len(self.columns[0])


class _Walks(NamedTuple):
    """What the capture replay reads besides the per-row columns, built
    once per log. Per batch, from its primary copy's
    :class:`ServiceParts`: service seconds (``base + pcie + slowdown``),
    straggler extra, gather seconds and the gather's worst shard (the
    first slowest piece, as an index into ``shard_names``, which start
    with the server names; ``-1`` for none). Sorted: the qids with a
    failed attempt, the batches with a hedge leg, and the requeued qids
    with the ready time of their last requeue."""

    service_s: np.ndarray
    straggler_s: np.ndarray
    gather_s: np.ndarray
    worst: np.ndarray
    shard_names: Tuple[str, ...]
    failed: np.ndarray
    hedged: np.ndarray
    requeued: np.ndarray
    ready: np.ndarray


def _needs_chain(
    walks: _Walks, qid: np.ndarray, batch: np.ndarray
) -> np.ndarray:
    """Which settled rows the capture decomposes from their rebuilt
    attempt chain: queries with a failed attempt, and members of a batch
    with a hedge leg. Every other row ran one attempt, on its batch's
    primary copy."""
    return np.isin(qid, walks.failed) | np.isin(batch, walks.hedged)


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
        "gather_t", "fanout", "gather_s", "_chains", "_ends", "_walks",
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
        self._chains = None
        self._ends = None
        self._walks = None

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
        ends = self._settle_ends()
        for lo in range(0, qids.size, _LATENCY_CHUNK):
            at = np.arange(lo, min(lo + _LATENCY_CHUNK, qids.size))
            ts.observe_each(
                "latency_s", done_t[np.searchsorted(ends, at, "right")],
                latencies[qids[at]],
            )

    def _tables(self, names: Sequence[str]) -> tuple:
        """Failed attempts by qid, the last requeue ``(attempt, ready)``
        by qid and successful hedge legs by batch; built on first use."""
        if self._chains is None:
            failed: Dict[int, list] = {}
            for b, qid, attempt, t, outcome, end, _ in self.failed:
                failed.setdefault(qid, []).append((b, attempt, t, outcome, end))
            self._chains = (
                failed,
                {qid: (attempt, t) for qid, attempt, t in self.requeued},
                {
                    b: HedgeLeg(t, names[s], s, parts)
                    for b, s, t, _, parts in self.hedges
                },
            )
        return self._chains

    def replay_capture(
        self,
        capture: "QueryTraceCapture",
        arrivals: np.ndarray,
        latencies: np.ndarray,
        names: Sequence[str],
    ) -> None:
        """Fill ``capture`` with every settled query, in loop order, a
        chunk of at most :data:`_SETTLE_CHUNK` rows at a time (the log
        needs ``detail``); its shed and drop counts read the log."""
        capture.begin_run(self, names)
        walks = self._walk_tables(names)
        qids = _column(self.done_qids)
        done_t, ends = _column(self.done_t), self._settle_ends()
        close, start = _column(self.close), _column(self.start)
        server = _column(self.server)
        # The short chunk goes first, so the last one is full: the
        # replay's peak is one full chunk above what the capture keeps.
        n, chunk = qids.size, _SETTLE_CHUNK
        for hi in range(n % chunk or chunk, n + 1, chunk):
            lo = max(hi - chunk, 0)
            qid = qids[lo:hi]
            b = np.searchsorted(ends, np.arange(lo, hi), side="right")
            arrival = arrivals[qid]
            ready = arrival.copy()
            if walks.requeued.size:
                at = np.searchsorted(walks.requeued, qid)
                at[at == walks.requeued.size] = 0
                hit = walks.requeued[at] == qid
                ready[hit] = walks.ready[at[hit]]
            capture.settle_rows(SettledRows(
                qid=qid, batch=b, arrival=arrival, ready=ready,
                close=close[b], start=start[b], completion=done_t[b],
                latency=latencies[qid], service_s=walks.service_s[b],
                straggler_s=walks.straggler_s[b], gather_s=walks.gather_s[b],
                straggler_shard=server[b], gather_shard=walks.worst[b],
                chained=_needs_chain(walks, qid, b),
                shard_names=walks.shard_names,
            ))

    def dropped(self) -> int:
        """Queries dropped after exhausting their retries."""
        return sum(self.failed.columns[6])

    def _settle_ends(self) -> np.ndarray:
        """The running count of settled queries after each batch; built
        on first use, once the loop is done."""
        if self._ends is None:
            self._ends = np.cumsum(_column(self.done_n))
        return self._ends

    def _walk_tables(self, names: Sequence[str]) -> _Walks:
        """The log's :class:`_Walks`, built on first use."""
        if self._walks is None:
            shard_names = list(names)
            code: Dict[str, int] = {}
            worst = array("q")
            for parts in self.parts:
                pieces = parts.gather_pieces
                if pieces:
                    shard = max(pieces, key=lambda piece: piece[1])[0]
                    if shard not in code:
                        code[shard] = len(shard_names)
                        shard_names.append(shard)
                    worst.append(code[shard])
                else:
                    worst.append(-1)
            n = len(self.parts)
            # The last requeue of each query wins.
            requeued, last = np.unique(
                _column(self.requeued.columns[0])[::-1], return_index=True
            )
            self._walks = _Walks(
                np.fromiter((
                    p.base_s + p.pcie_extra_s + p.slowdown_extra_s
                    for p in self.parts
                ), float, n),
                np.fromiter(
                    (p.straggler_extra_s for p in self.parts), float, n
                ),
                np.fromiter((p.gather_s for p in self.parts), float, n),
                np.array(worst),
                tuple(shard_names),
                np.unique(_column(self.failed.columns[1])),
                np.unique(_column(self.hedges.columns[0])),
                requeued,
                _column(self.requeued.columns[2])[::-1][last],
            )
        return self._walks

    def batch_of(self, row: int) -> int:
        """The batch the ``row``-th settled query settled in."""
        return int(np.searchsorted(self._settle_ends(), row, side="right"))

    def chain(
        self, b: int, qid: int, arrival: float, names: Sequence[str]
    ) -> List[AttemptEvent]:
        """Query ``qid``'s attempts, in attempt order: each failed one,
        then the one that completed in batch ``b``. A query settles with
        the attempt it was last requeued with, or attempt 0 ready at its
        ``arrival``."""
        failed, requeued, hedges = self._tables(names)
        rows = failed.get(qid, []) + [
            (b, *requeued.get(qid, (0, arrival)), "completed", self.done_t[b])
        ]
        events = []
        for at, attempt, t, outcome, end in rows:
            server, flags = self.server[at], self.flags[at]
            events.append(AttemptEvent(
                attempt, t, self.close[at], self.start[at], end, outcome,
                names[server], server,
                REPLICA_LANE_RETRY if flags & RETRIED else REPLICA_LANE_SERVE,
                self.parts[at], hedges.get(at), bool(flags & HEDGE_WON),
            ))
        events.sort(key=lambda a: a.attempt)
        return events
