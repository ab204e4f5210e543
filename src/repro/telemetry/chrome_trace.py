"""Chrome / Perfetto trace-event export.

Serializes tracer spans to the Trace Event Format (the JSON that
``chrome://tracing`` and https://ui.perfetto.dev load directly):
complete events (``ph: "X"``) with microsecond ``ts``/``dur``, plus
process/thread metadata events so tracks get readable names.

Spans may carry a per-replica ``pid`` (0 means the default trace
process, exported as :data:`TRACE_PID`): the resilient scheduler gives
each replica its own process so its serve / hedge / retry / fault
lanes render as separate named tracks instead of overlapping in one
row. A replica span names its process via the ``process`` attr; the
exporter collects those into per-pid ``process_name`` metadata.

Windowed time-series tracks additionally export as counter events
(``ph: "C"``) via :func:`timeseries_to_counter_events`, so Perfetto
draws QPS / queue depth / p99 as counter charts above the span tracks.

Every event keeps the span's exact duration in seconds under
``args.seconds`` — the microsecond fields are for the viewer; analysis
code should prefer the seconds field (no unit round-trip).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.telemetry.tracer import MODELED_TID, Span

__all__ = [
    "spans_to_trace_events",
    "timeseries_to_counter_events",
    "querytrace_flow_events",
    "chrome_trace_document",
    "write_chrome_trace",
    "load_chrome_trace",
]

#: Default trace process (spans with pid 0 land here).
TRACE_PID = 1

#: Counter tracks (ph:"C" events) get their own process so they group
#: together at the top of the Perfetto timeline.
COUNTER_PID = 2

#: Per-query rows (one tid per completed query) emitted by
#: :func:`querytrace_flow_events` get their own process.
QUERY_PID = 3

#: Replica k's spans carry pid = _REPLICA_PID_BASE + k (see
#: repro.resilience.engine); anything at or above this is a replica.
REPLICA_PID_BASE = 10

#: Shard server k's spans carry pid = SHARD_PID_BASE + k (see
#: repro.distserve); anything at or above this is a shard process.
SHARD_PID_BASE = 100

_THREAD_NAMES = {
    0: "wall-clock",
    MODELED_TID: "modeled-timeline",
}

#: Lane tids within one replica process (engine emits these).
REPLICA_LANE_SERVE = 0
REPLICA_LANE_HEDGE = 1
REPLICA_LANE_RETRY = 2
REPLICA_LANE_FAULT = 3

_REPLICA_THREAD_NAMES = {
    REPLICA_LANE_SERVE: "serve",
    REPLICA_LANE_HEDGE: "hedges",
    REPLICA_LANE_RETRY: "retries",
    REPLICA_LANE_FAULT: "faults",
}


def _event_pid(span: Span) -> int:
    return span.pid if span.pid else TRACE_PID


def spans_to_trace_events(spans: Iterable[Span]) -> List[Dict[str, Any]]:
    """Spans -> complete events (``ph: "X"``), microsecond clock."""
    events: List[Dict[str, Any]] = []
    for span in spans:
        args = {"seconds": span.duration_s, "depth": span.depth}
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": span.category or "default",
                "ph": "X",
                "ts": span.start_s * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": _event_pid(span),
                "tid": span.tid,
                "args": args,
            }
        )
    return events


def timeseries_to_counter_events(
    summary: Any,
    tracks: Optional[Sequence[str]] = None,
    pid: int = COUNTER_PID,
) -> List[Dict[str, Any]]:
    """Windowed summary -> Perfetto counter events (``ph: "C"``).

    ``summary`` is a :class:`repro.telemetry.timeseries.TimeSeriesSummary`
    (or a live :class:`~repro.telemetry.timeseries.TimeSeries`, which is
    summarized first). One counter event per (track, window) at the
    window start: counters export their per-window total, gauges their
    mean, histograms their p50/p95/p99 as one multi-series counter.
    State tracks are skipped (categorical; they render as spans).
    """
    if hasattr(summary, "summary"):  # live TimeSeries
        summary = summary.summary()
    events: List[Dict[str, Any]] = []
    names = list(tracks) if tracks is not None else summary.track_names()
    for name in names:
        kind = summary.track_kinds.get(name)
        if kind == "state" or kind is None:
            continue
        for index in summary.window_indices():
            ts_us = summary.window_start(index) * 1e6
            if kind == "counter":
                args = {name: summary.counter(name, index)}
            elif kind == "gauge":
                cell = summary.gauge(name, index)
                args = {name: cell["mean"] if cell else 0.0}
            else:  # histogram
                cell = summary.histogram_summary(name, index)
                if cell:
                    args = {
                        k: v for k, v in cell.items() if k.startswith("p")
                    }
                else:
                    args = {"p50": 0.0, "p95": 0.0, "p99": 0.0}
            events.append(
                {
                    "name": name,
                    "cat": "timeseries",
                    "ph": "C",
                    "ts": ts_us,
                    "pid": pid,
                    "tid": 0,
                    "args": args,
                }
            )
    return events


def querytrace_flow_events(
    capture: Any,
    pid: int = QUERY_PID,
) -> List[Dict[str, Any]]:
    """Captured query traces -> flow events threading each query.

    ``capture`` is a
    :class:`~repro.telemetry.querytrace.QueryTraceCapture` after a
    run. Each completed query becomes:

    * a parent ``ph:"X"`` query slice on its own row of the query
      process (``tid`` = qid), spanning arrival to completion;
    * a flow start (``ph:"s"``, ``id`` = qid) on that slice;
    * one ``ph:"X"`` attempt slice per attempt on the owning replica
      process/lane (same pid/tid convention the resilient engine uses
      for its span lanes), each carrying a flow step (``ph:"t"``);
    * hedge legs and per-shard gather pieces as slices + steps on the
      hedge lane / shard processes (a gather piece of ``r`` seconds is
      drawn ending at the attempt end — RPCs complete when the
      attempt's execution block does);
    * a flow finish (``ph:"f"``) bound to the winning attempt at the
      query's completion time.

    Steps and finishes bind to the enclosing slice (``bp:"e"``) so
    Perfetto draws one arrow chain per query across the replica and
    shard tracks.
    """
    events: List[Dict[str, Any]] = []
    # Each record's attempt chain is rebuilt on read: read it once.
    records = [
        (rec, rec.attempts)
        for rec in sorted(capture.records.values(), key=lambda r: r.qid)
    ]
    # Shard processes are keyed by name order (deterministic; matches
    # layout order for the default "shard<k>" naming).
    shard_names = sorted(
        {
            piece[0]
            for _, attempts in records
            for a in attempts
            for piece in a.parts.gather_pieces
        }
    )
    shard_pid = {
        name: SHARD_PID_BASE + i for i, name in enumerate(shard_names)
    }
    process_names: Dict[int, str] = {pid: "queries"}

    def flow(ph: str, qid: int, ts_s: float, epid: int, tid: int) -> None:
        event = {
            "name": "query-flow",
            "cat": "query",
            "ph": ph,
            "id": qid,
            "ts": ts_s * 1e6,
            "pid": epid,
            "tid": tid,
        }
        if ph in ("t", "f"):
            event["bp"] = "e"
        events.append(event)

    for rec, attempts in records:
        qid = rec.qid
        events.append(
            {
                "name": f"query {qid}",
                "cat": "query",
                "ph": "X",
                "ts": rec.arrival * 1e6,
                "dur": rec.latency * 1e6,
                "pid": pid,
                "tid": qid,
                "args": {
                    "seconds": rec.latency,
                    "attempts": len(attempts),
                    "dominant": rec.dominant_component(),
                },
            }
        )
        flow("s", qid, rec.arrival, pid, qid)
        for a in attempts:
            apid = REPLICA_PID_BASE + a.server_index
            process_names.setdefault(apid, f"replica: {a.server}")
            events.append(
                {
                    "name": f"q{qid}/a{a.attempt} {a.outcome}",
                    "cat": "query",
                    "ph": "X",
                    "ts": a.start * 1e6,
                    "dur": max(a.end - a.start, 0.0) * 1e6,
                    "pid": apid,
                    "tid": a.lane,
                    "args": {
                        "seconds": max(a.end - a.start, 0.0),
                        "qid": qid,
                        "outcome": a.outcome,
                        "process": a.server,
                    },
                }
            )
            flow("t", qid, a.start, apid, a.lane)
            if a.hedge is not None:
                hpid = REPLICA_PID_BASE + a.hedge.server_index
                process_names.setdefault(
                    hpid, f"replica: {a.hedge.server}"
                )
                events.append(
                    {
                        "name": f"q{qid}/a{a.attempt} hedge"
                        + (" won" if a.hedge_won else ""),
                        "cat": "query",
                        "ph": "X",
                        "ts": a.hedge.start * 1e6,
                        "dur": max(a.end - a.hedge.start, 0.0) * 1e6,
                        "pid": hpid,
                        "tid": REPLICA_LANE_HEDGE,
                        "args": {
                            "seconds": max(a.end - a.hedge.start, 0.0),
                            "qid": qid,
                            "process": a.hedge.server,
                        },
                    }
                )
                flow("t", qid, a.hedge.start, hpid, REPLICA_LANE_HEDGE)
            parts = (
                a.hedge.parts if (a.hedge_won and a.hedge is not None)
                else a.parts
            )
            for shard, seconds, lost in parts.gather_pieces:
                spid = shard_pid[shard]
                process_names.setdefault(spid, f"shard: {shard}")
                events.append(
                    {
                        "name": f"q{qid} gather {shard}"
                        + (" (lost)" if lost else ""),
                        "cat": "query",
                        "ph": "X",
                        "ts": (a.end - seconds) * 1e6,
                        "dur": seconds * 1e6,
                        "pid": spid,
                        "tid": 0,
                        "args": {
                            "seconds": seconds,
                            "qid": qid,
                            "lost": lost,
                            "process": shard,
                        },
                    }
                )
                flow("t", qid, max(a.end - seconds, a.start), spid, 0)
        winner = attempts[-1] if attempts else None
        if winner is not None:
            wpid = (
                REPLICA_PID_BASE + winner.hedge.server_index
                if (winner.hedge_won and winner.hedge is not None)
                else REPLICA_PID_BASE + winner.server_index
            )
            wtid = (
                REPLICA_LANE_HEDGE if winner.hedge_won else winner.lane
            )
            flow("f", qid, rec.completion, wpid, wtid)
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": p,
            "tid": 0,
            "args": {"name": process_names[p]},
        }
        for p in sorted(process_names)
    ]
    return meta + events


def _metadata_events(
    spans: Sequence[Span],
    process_name: str,
    extra_processes: Optional[Mapping[int, str]] = None,
) -> List[Dict[str, Any]]:
    # Per-pid process names: the default process plus any replica
    # processes named via span attrs / extra_processes.
    process_names: Dict[int, str] = {TRACE_PID: process_name}
    if extra_processes:
        process_names.update(extra_processes)
    tids_by_pid: Dict[int, set] = {}
    for span in spans:
        pid = _event_pid(span)
        tids_by_pid.setdefault(pid, set()).add(span.tid)
        if pid != TRACE_PID and "process" in span.attrs:
            label = str(span.attrs["process"])
            if pid >= SHARD_PID_BASE:
                label = f"shard: {label}"
            elif pid >= REPLICA_PID_BASE:
                label = f"replica: {label}"
            process_names.setdefault(pid, label)
    events: List[Dict[str, Any]] = []
    for pid in sorted(set(process_names) | set(tids_by_pid)):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process_names.get(pid, f"process-{pid}")},
            }
        )
        for tid in sorted(tids_by_pid.get(pid, ())):
            if pid >= REPLICA_PID_BASE and pid != MODELED_TID:
                tname = _REPLICA_THREAD_NAMES.get(tid, f"lane-{tid}")
            else:
                tname = _THREAD_NAMES.get(tid, f"thread-{tid}")
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": tname},
                }
            )
    return events


def chrome_trace_document(
    spans: Sequence[Span],
    process_name: str = "repro",
    metrics: Optional[List[Mapping[str, Any]]] = None,
    timeseries: Optional[Any] = None,
    counter_tracks: Optional[Sequence[str]] = None,
    querytrace: Optional[Any] = None,
) -> Dict[str, Any]:
    """Build the full JSON-object trace document.

    ``metrics`` (a registry snapshot) rides along under ``otherData``
    so one file carries both the timeline and the counters.
    ``timeseries`` (a TimeSeries or TimeSeriesSummary) adds ph:"C"
    counter events under their own process. ``querytrace`` (a
    QueryTraceCapture) adds per-query flow events (``ph:"s"/"t"/"f"``)
    threading each completed query across the replica and shard tracks.
    """
    events = _metadata_events(spans, process_name)
    if timeseries is not None:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": COUNTER_PID,
                "tid": 0,
                "args": {"name": f"{process_name} counters"},
            }
        )
        events.extend(
            timeseries_to_counter_events(timeseries, tracks=counter_tracks)
        )
    if querytrace is not None:
        events.extend(querytrace_flow_events(querytrace))
    events.extend(spans_to_trace_events(spans))
    doc: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.telemetry"},
    }
    if metrics is not None:
        doc["otherData"]["metrics"] = [dict(m) for m in metrics]
    return doc


def write_chrome_trace(
    path: str,
    spans: Sequence[Span],
    process_name: str = "repro",
    metrics: Optional[List[Mapping[str, Any]]] = None,
    timeseries: Optional[Any] = None,
    counter_tracks: Optional[Sequence[str]] = None,
    querytrace: Optional[Any] = None,
) -> str:
    """Write the trace document to ``path``; returns the path."""
    doc = chrome_trace_document(
        spans,
        process_name=process_name,
        metrics=metrics,
        timeseries=timeseries,
        counter_tracks=counter_tracks,
        querytrace=querytrace,
    )
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


def load_chrome_trace(path: str) -> Dict[str, Any]:
    """Load and structurally validate a trace document.

    Checks the invariants consumers rely on: a ``traceEvents`` list
    whose complete events all carry ``ph``/``ts``/``dur``/``pid``/
    ``tid``/``name``, whose counter events carry ``ph``/``ts``/
    ``pid``/``name``/``args``, and whose flow events
    (``ph:"s"/"t"/"f"``) carry ``ph``/``ts``/``pid``/``tid``/``name``/
    ``id`` (the flow id is what stitches one query's arrow chain
    together, so a flow event without one is structurally broken).
    """
    with open(path) as fh:
        doc = json.load(fh)
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError(f"{path}: missing traceEvents list")
    required_x = ("ph", "ts", "dur", "pid", "tid", "name")
    required_c = ("ph", "ts", "pid", "name", "args")
    required_flow = ("ph", "ts", "pid", "tid", "name", "id")
    for event in events:
        ph = event.get("ph")
        if ph == "X":
            required = required_x
        elif ph == "C":
            required = required_c
        elif ph in ("s", "t", "f"):
            required = required_flow
        else:
            continue
        missing = [k for k in required if k not in event]
        if missing:
            raise ValueError(
                f"{path}: {ph} event {event.get('name')!r} missing {missing}"
            )
    return doc
