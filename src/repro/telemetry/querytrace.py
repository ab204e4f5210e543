"""Per-query causal event capture with exact critical-path decomposition.

``QueryTraceCapture`` is an optional sink of both schedulers. For
every query it records the causal chain — enqueue, batch admission,
dispatch and finish per attempt, retry backoff gaps, hedge issue/win,
and the per-shard gather fan-out of the winning attempt. The
schedulers fill it after the run, replaying their
:class:`~repro.telemetry.runlog.RunLog` in loop order through
:meth:`~QueryTraceCapture.begin_run`, ``shed``, ``drop`` and
``settle``; a settlement decomposes the attempt chain the log
rebuilds. Capture is strictly observational: the replay only *copies*
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
        self._arrivals = None
        self._names: Sequence[str] = ()
        self._cols = {name: array(code) for name, code in _COLUMNS.items()}
        self._shard_code: Dict[str, int] = {}
        #: Every completed query by qid, in settle order, as row views.
        self.records: Mapping[int, QueryTraceRecord] = _Records(self)
        self.shed_queries = 0
        self.dropped_queries = 0

    # -- capture hooks (called by the run-log replay) -----------------------

    def begin_run(
        self, arrivals, log: "RunLog", names: Sequence[str]
    ) -> None:
        """Start the run replayed from ``log``. The arrival array, the
        log and the server ``names`` are held by reference (neither side
        mutates them); attempt chains are rebuilt from them. A capture
        records one run, so the views it hands out never change."""
        if self._log is not None:
            raise RuntimeError(
                "a QueryTraceCapture records one run; attach a fresh one "
                "to each run"
            )
        self._arrivals, self._log, self._names = arrivals, log, names

    def shed(self, qid: int, at: float) -> None:
        """Query shed before dispatch."""
        self.shed_queries += 1

    def drop(self, qid: int, at: float) -> None:
        """Query dropped after exhausting retries."""
        self.dropped_queries += 1

    def settle(
        self, qid: int, latency: float, completion: float, batch: int
    ) -> None:
        """Query completed in the log's batch ``batch``: decompose the
        attempt chain the log rebuilds into a new row."""
        arrival = float(self._arrivals[qid])
        attempts = self._log.chain(batch, qid, arrival, self._names)
        comps, intervals, shard_seconds = decompose_attempts(
            arrival, completion, latency, attempts
        )
        cols = self._cols
        row = len(cols["qid"])
        cols["qid"].append(qid)
        cols["arrival"].append(arrival)
        cols["completion"].append(completion)
        cols["latency"].append(latency)
        cols["components"].extend(map(comps.__getitem__, COMPONENTS))
        cols["attempts"].append(len(attempts))
        cols["label"].extend([_CODE[i[0]] for i in intervals])
        cols["end"].extend([i[2] for i in intervals])
        cols["cover"].append(len(cols["end"]))
        codes = self._shard_code
        for comp, shards in shard_seconds.items():
            for name, seconds in shards.items():
                cols["shard_row"].append(row)
                cols["shard_component"].append(_CODE[comp])
                cols["shard"].append(codes.setdefault(name, len(codes)))
                cols["shard_seconds"].append(seconds)

    # -- reads ----------------------------------------------------------------

    @property
    def completed(self) -> int:
        return len(self._cols["qid"])

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
        right in settle order (the float order of a running ``+=``)."""
        comps = np.vstack((np.zeros(_NCOMP), self.columns()["components"]))
        return dict(zip(COMPONENTS, np.cumsum(comps, axis=0)[-1].tolist()))

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
