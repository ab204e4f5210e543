"""Per-query causal event capture with exact critical-path decomposition.

``QueryTraceCapture`` is an optional sink of both schedulers. For
every query it records the causal chain — enqueue, batch admission,
dispatch and finish per attempt, retry backoff gaps, hedge issue/win,
and the per-shard gather fan-out of the winning attempt. The
schedulers fill it after the run, replaying their
:class:`~repro.telemetry.runlog.RunLog` in loop order:
:meth:`~QueryTraceCapture.begin_run`, then
:meth:`~QueryTraceCapture.settle_rows` per chunk of at most 1024
settled queries. A query that ran one attempt with no hedge leg (almost
every one) is walked in array steps that mirror
:func:`decompose_attempts` float for float; any other decomposes the
attempt chain the log rebuilds. The shed and drop counts read the log.
Capture is strictly observational: the replay only *copies*
floats the run already computed, draws no randomness, and reads
nothing back, so results are bit-identical with capture on or off (the
same contract :class:`~repro.telemetry.timeseries.TimeSeries`
established).

At settlement each completed query's chain is walked into a monotone
sequence of labeled intervals covering ``[arrival, completion]`` and
folded into the seven named latency components (:data:`COMPONENTS`).
The decomposition is *exact*: after a residue-balancing pass,
``math.fsum`` of the components in :data:`COMPONENTS` order equals the
measured latency bit-for-bit (``==``, not approx) — this is the
conservation law ``repro fuzz`` guards via the
``latency_decomposition_conservation`` contract.

Every completed query is kept, as one row of typed columns: qid,
arrival, completion, latency, the seven components, the attempt count
and the interval cover as flat ``(label, end)`` rows (the cover is
contiguous from the arrival), plus a per-shard side table. The attempt
chains themselves are not stored: the capture holds the run log it was
replayed from and rebuilds a query's chain when a record reads it.
:class:`QueryTraceRecord` is a view of one row. A capture records one
run, so a view never changes under its reader.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

if TYPE_CHECKING:
    from repro.telemetry.runlog import RunLog

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

_NCOMP = len(COMPONENTS)

#: Component name -> the code the label and shard columns store.
_CODE = {k: i for i, k in enumerate(COMPONENTS)}

#: The capture's columns and their typecodes. Per completed query:
#: ``qid`` to ``cover``, where ``components`` holds seven values in
#: :data:`COMPONENTS` order and ``cover`` the running count of interval
#: rows. Per interval row: its component code and its end. Per shard
#: entry: the query's row, the component code, the shard's code in
#: :attr:`QueryTraceCapture.shard_names` and the seconds.
_COLUMNS = {
    "qid": "q", "arrival": "d", "completion": "d", "latency": "d",
    "components": "d", "attempts": "I", "cover": "q",
    "label": "b", "end": "d",
    "shard_row": "q", "shard_component": "b", "shard": "q",
    "shard_seconds": "d",
}


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


def _scalar(column: str) -> property:
    return property(lambda self: self._capture._cols[column][self._row])


class QueryTraceRecord:
    """One completed query: a read-only view of its row of a
    :class:`QueryTraceCapture`'s columns, read field by field."""

    __slots__ = ("_capture", "_row")

    def __init__(self, capture: "QueryTraceCapture", row: int) -> None:
        self._capture = capture
        self._row = row

    qid = _scalar("qid")
    arrival = _scalar("arrival")
    completion = _scalar("completion")
    latency = _scalar("latency")

    @property
    def components(self) -> Dict[str, float]:
        lo = self._row * _NCOMP
        return dict(zip(COMPONENTS, self._capture._cols["components"][lo:lo + _NCOMP]))

    @property
    def intervals(self) -> Tuple[Tuple[str, float, float, Optional[str]], ...]:
        """``(label, start, end, shard)`` per interval of the cover. Only
        the winning execution emits shard-annotated intervals, one per
        label, so ``shard_seconds[label]`` names that interval's shard."""
        cols, row = self._capture._cols, self._row
        lo, hi = cols["cover"][row - 1] if row else 0, cols["cover"][row]
        shard_of = {k: next(iter(v)) for k, v in self.shard_seconds.items()}
        labels = [COMPONENTS[code] for code in cols["label"][lo:hi]]
        ends = cols["end"][lo:hi].tolist()
        return tuple(
            (label, start, end, shard_of.get(label))
            for label, start, end in zip(labels, [self.arrival] + ends, ends)
        )

    @property
    def attempts(self) -> Tuple[AttemptEvent, ...]:
        """The attempt chain, rebuilt from the capture's run log."""
        cap = self._capture
        return tuple(cap._log.chain(
            cap._log.batch_of(self._row), self.qid, self.arrival, cap._names
        ))

    @property
    def shard_seconds(self) -> Dict[str, Dict[str, float]]:
        cols, names = self._capture._cols, self._capture.shard_names
        rows = cols["shard_row"]
        out: Dict[str, Dict[str, float]] = {}
        for i in range(
            bisect_left(rows, self._row), bisect_right(rows, self._row)
        ):
            component = COMPONENTS[cols["shard_component"][i]]
            shard = names[cols["shard"][i]]
            out.setdefault(component, {})[shard] = cols["shard_seconds"][i]
        return out

    def conservation_ok(self) -> bool:
        """Whether the components sum exactly to the measured latency."""
        return math.fsum(self.components.values()) == self.latency

    def dominant_component(self) -> str:
        components = self.components
        return max(COMPONENTS, key=components.__getitem__)


class _Records(Mapping):
    """A capture's completed queries by qid, in settle order, as row
    views; the qid index is built on the first lookup."""

    __slots__ = ("_capture", "_index")

    def __init__(self, capture: "QueryTraceCapture") -> None:
        self._capture = capture
        self._index: Dict[int, int] = {}

    def __len__(self) -> int:
        return self._capture.completed

    def __iter__(self) -> Iterator[int]:
        return iter(self._capture._cols["qid"])

    def __getitem__(self, qid: int) -> QueryTraceRecord:
        if len(self._index) != len(self):
            self._index = {q: row for row, q in enumerate(self)}
        return QueryTraceRecord(self._capture, self._index[qid])


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


#: The component of each :meth:`_Walk.emit` step a single winning
#: attempt with no hedge leg takes in :func:`decompose_attempts`: wait
#: to ready, formation to close, wait to start, then the execution's
#: service, straggler and gather segments, then service to completion.
_STEP_CODES = np.array(
    [_CODE[k] for k in (
        "queue_wait", "batch_formation", "queue_wait", "service",
        "straggler_wait", "gather_network", "service",
    )],
    dtype=np.int8,
)

#: Rows converted to Python floats at a time by the exactness check of
#: :meth:`QueryTraceCapture.settle_rows`, so the check adds no
#: chunk-long list of floats to the replay's memory peak.
_FSUM_BLOCK = 64

#: Rows a whole-column reduction works at a time (``component_totals``,
#: the explanation's fault overlap), so none adds a column-long
#: temporary to the memory peak.
_BLOCK_ROWS = 1024

#: The two steps that carry a shard annotation: straggler and gather.
_SHARD_STEPS = slice(4, 6)


@dataclass(slots=True)
class SettledRows:
    """A chunk of settled queries in settle order, one array per field,
    as :meth:`QueryTraceCapture.settle_rows` takes them.

    Each row has its query's ``arrival``, its ``ready`` time (after the
    last requeue, else the arrival) and the settling batch's close,
    start and ``completion``; the primary copy's service seconds
    (``base + pcie + slowdown``), straggler extra and gather seconds;
    and, as indices into ``shard_names``, the batch's replica and the
    gather's worst shard (``-1`` for none). A ``chained`` row (a failed
    attempt, or a hedge leg on its batch) is decomposed from the attempt
    chain the run log rebuilds instead.
    """

    qid: np.ndarray
    batch: np.ndarray
    arrival: np.ndarray
    ready: np.ndarray
    close: np.ndarray
    start: np.ndarray
    completion: np.ndarray
    latency: np.ndarray
    service_s: np.ndarray
    straggler_s: np.ndarray
    gather_s: np.ndarray
    straggler_shard: np.ndarray
    gather_shard: np.ndarray
    chained: np.ndarray
    shard_names: Sequence[str]


def _walk_columns(
    rows: SettledRows,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk each row as one winning attempt with no hedge leg: the
    :data:`_STEP_CODES` steps as array operations, each mirroring one
    :meth:`_Walk.emit` of :func:`decompose_attempts` (clamp to the
    completion, skip unless past the current point, the execution's
    last planned segment forced to the completion).

    Returns ``(ends, widths, emitted)``, each n x 7 by step.
    """
    completion = rows.completion
    straggles, gathers = rows.straggler_s > 0.0, rows.gather_s > 0.0
    shape = (len(completion), len(_STEP_CODES))
    ends, widths = np.empty(shape), np.zeros(shape)
    emitted = np.zeros(shape, dtype=bool)
    cur = rows.arrival

    def emit(step: int, end: np.ndarray, planned=True) -> None:
        nonlocal cur
        end = np.where(end > completion, completion, end)
        go = ~(end <= cur) & planned
        ends[:, step], emitted[:, step] = end, go
        widths[go, step] = (end - cur)[go]
        cur = np.where(go, end, cur)

    emit(0, rows.ready)
    emit(1, rows.close)
    emit(2, rows.start)
    emit(3, np.where(straggles | gathers, cur + rows.service_s, completion))
    emit(4, np.where(gathers, cur + rows.straggler_s, completion), straggles)
    emit(5, completion, gathers)
    emit(6, completion)
    return ends, widths, emitted


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


class QueryTraceCapture:
    """Every completed query's exact critical-path decomposition, kept
    as one row of typed columns per query.

    A capture records one run; attach a fresh one to each run. ``seed``
    is accepted and unused: every query is kept, so nothing is sampled.
    """

    def __init__(self, *, seed: int = 2020) -> None:
        # The stack benchmark still passes a seed; nothing reads it.
        self._log: Optional["RunLog"] = None
        self._names: Sequence[str] = ()
        self._cols = {name: array(code) for name, code in _COLUMNS.items()}
        self._shard_code: Dict[str, int] = {}
        #: Every completed query by qid, in settle order, as row views.
        self.records: Mapping[int, QueryTraceRecord] = _Records(self)

    # -- capture hooks (called by the run-log replay) -----------------------

    def begin_run(self, log: "RunLog", names: Sequence[str]) -> None:
        """Start the run replayed from ``log``. The log and the server
        ``names`` are held by reference (neither side mutates them);
        attempt chains are rebuilt from them. A capture records one run,
        so the views it hands out never change."""
        if self._log is not None:
            raise RuntimeError(
                "a QueryTraceCapture records one run; attach a fresh one "
                "to each run"
            )
        self._log, self._names = log, names

    def settle_rows(self, rows: "SettledRows") -> None:
        """Append a chunk of settled queries, in settle order, as new
        rows. A row not ``chained`` is walked in array steps
        (:func:`_walk_columns`); a chained one decomposes the attempt
        chain the run log rebuilds. Either way the row holds exactly
        what :func:`decompose_attempts` gives for its chain."""
        n = len(rows.qid)
        ends, widths, emitted = _walk_columns(rows)
        walked = emitted & ~rows.chained[:, None]
        comps = np.zeros((n, _NCOMP))
        for step, code in enumerate(_STEP_CODES):
            comps[:, code] += widths[:, step]
        attempts = np.ones(n, dtype=np.uint32)
        # A walked row's cover is its emitted steps; its shard entries
        # (row, component, name in the table, seconds) name the replica
        # a straggler waited on, then the gather's worst shard.
        count = walked.sum(axis=1)
        shard_step = walked[:, _SHARD_STEPS].copy()
        shard_step[:, 1] &= rows.gather_shard >= 0
        entry_row, step = np.nonzero(shard_step)
        entries = [
            entry_row, _STEP_CODES[_SHARD_STEPS][step],
            np.stack((rows.straggler_shard, rows.gather_shard), 1)[shard_step],
            widths[:, _SHARD_STEPS][shard_step],
        ]
        # A chained row's cover and entries go in after those of the
        # walked rows up to it (it has none of its own there).
        cover_before = np.cumsum(count)
        entries_before = np.cumsum(shard_step.sum(axis=1))
        table = list(rows.shard_names)
        cover_at, cover, entry_at, entry = [], [], [], []
        for i in np.flatnonzero(rows.chained).tolist():
            arrival = float(rows.arrival[i])
            chain = self._log.chain(
                int(rows.batch[i]), int(rows.qid[i]), arrival, self._names
            )
            c, intervals, shard_seconds = decompose_attempts(
                arrival, float(rows.completion[i]), float(rows.latency[i]),
                chain,
            )
            comps[i] = [c[k] for k in COMPONENTS]
            attempts[i], count[i] = len(chain), len(intervals)
            cover_at += [cover_before[i]] * len(intervals)
            cover += intervals
            for comp, shards in shard_seconds.items():
                for name, seconds in shards.items():
                    entry_at.append(entries_before[i])
                    entry.append((i, _CODE[comp], len(table), seconds))
                    table.append(name)
        fsums = np.fromiter((
            math.fsum(row)
            for lo in range(0, n, _FSUM_BLOCK)
            for row in comps[lo:lo + _FSUM_BLOCK].tolist()
        ), float, n)
        for i in np.flatnonzero(rows.latency - fsums != 0.0).tolist():
            balanced = dict(zip(COMPONENTS, comps[i].tolist()))
            _balance(balanced, float(rows.latency[i]))
            comps[i] = [balanced[k] for k in COMPONENTS]

        labels = np.broadcast_to(_STEP_CODES, walked.shape)[walked]
        cover_ends = ends[walked]
        if cover:
            labels = np.insert(labels, cover_at, [_CODE[v[0]] for v in cover])
            cover_ends = np.insert(cover_ends, cover_at, [v[2] for v in cover])
        if entry:
            entries = [
                np.insert(values, entry_at, inserted)
                for values, inserted in zip(entries, zip(*entry))
            ]

        cols = self._cols
        first_row, first_end = len(cols["qid"]), len(cols["end"])
        entry_row, entry_comp, entry_name, entry_s = entries
        for column, values in (
            ("qid", rows.qid), ("arrival", rows.arrival),
            ("completion", rows.completion), ("latency", rows.latency),
            ("components", comps), ("attempts", attempts),
            ("label", labels), ("end", cover_ends),
            ("cover", first_end + np.cumsum(count)),
            ("shard_row", first_row + entry_row),
            ("shard_component", entry_comp),
            ("shard", self._shard_codes(entry_name, table)),
            ("shard_seconds", entry_s),
        ):
            cols[column].frombytes(np.ascontiguousarray(
                values, dtype=cols[column].typecode
            ).reshape(-1).view(np.uint8))

    def _shard_codes(
        self, names: np.ndarray, table: Sequence[str]
    ) -> np.ndarray:
        """Each entry's shard code; ``names`` index ``table``. A name new
        to the capture takes the next code, in settle order."""
        codes = self._shard_code
        return np.array([
            codes.setdefault(table[i], len(codes)) for i in names.tolist()
        ], dtype=np.int64)

    # -- reads ----------------------------------------------------------------

    @property
    def completed(self) -> int:
        return len(self._cols["qid"])

    @property
    def shed_queries(self) -> int:
        """Queries shed before dispatch."""
        return len(self._log.shed) if self._log is not None else 0

    @property
    def dropped_queries(self) -> int:
        """Queries dropped after exhausting their retries."""
        return self._log.dropped() if self._log is not None else 0

    @property
    def shard_names(self) -> Tuple[str, ...]:
        """Shard names by the code the ``shard`` column stores."""
        return tuple(self._shard_code)

    def columns(self) -> Dict[str, np.ndarray]:
        """Every column (see :data:`_COLUMNS`) as an array viewing the
        capture's storage; ``components`` is n x 7."""
        out = {
            name: np.frombuffer(values, dtype=values.typecode)
            for name, values in self._cols.items()
        }
        out["components"] = out["components"].reshape(-1, _NCOMP)
        return out

    # -- summaries ----------------------------------------------------------

    @property
    def component_totals(self) -> Dict[str, float]:
        """Each component summed over every completed query, left to
        right in settle order (the float order of a running ``+=``): a
        ``cumsum`` per block of rows, continued from the running row."""
        comps = self.columns()["components"]
        running = np.zeros((1, _NCOMP))
        for lo in range(0, len(comps), _BLOCK_ROWS):
            block = np.vstack((running, comps[lo:lo + _BLOCK_ROWS]))
            running = np.cumsum(block, axis=0, out=block)[-1:]
        return dict(zip(COMPONENTS, running[0].tolist()))

    @property
    def shard_totals(self) -> Dict[str, Dict[str, float]]:
        """``{component: {shard: seconds}}`` over every completed query,
        summed in settle order."""
        cols, names = self._cols, self.shard_names
        totals: Dict[str, Dict[str, float]] = {}
        for comp, shard, seconds in zip(
            cols["shard_component"], cols["shard"], cols["shard_seconds"]
        ):
            dst = totals.setdefault(COMPONENTS[comp], {})
            dst[names[shard]] = dst.get(names[shard], 0.0) + seconds
        return totals

    def mean_components(self) -> Dict[str, float]:
        """Exact per-query mean of each component over every completed
        query."""
        n = max(self.completed, 1)
        return {k: total / n for k, total in self.component_totals.items()}
