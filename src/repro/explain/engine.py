"""Critical-path latency attribution over captured query traces.

:class:`Explanation` consumes a
:class:`~repro.telemetry.querytrace.QueryTraceCapture` after a run and
answers the question the monitors (PR 6) cannot: not *that* p99
excursed, but *why* — how much of the tail is queue wait vs. service
vs. shard fan-out vs. straggler wait vs. retry backoff. Three views:

* **Attribution profiles** (:meth:`profile`): mean component seconds
  and shares over the queries at or above a latency percentile, with
  per-shard annotation for gather-derived components ("62% of p99 is
  gather_network on shard 3").
* **What-if bounds** (:meth:`what_if`): re-walk the decomposition with
  one component zeroed and recompute the percentile. This bounds the
  *direct* win of eliminating that component: queueing relief is not
  re-simulated, so the bound is optimistic for components that also
  cause downstream queueing (the semantics docs/observability.md
  states). The special knob ``"fault_windows"`` zeroes only interval
  mass overlapping injected fault windows.
* **Fault-window overlap** (:meth:`fault_attribution`): how much of
  the tail excursion (latency above the run median) lies in component
  intervals overlapping injected fault windows — the strict check the
  CI explain smoke step enforces.

The engine is columnar and reads the capture's columns in place: the
constructor keeps the qid-order permutation of the capture's rows, the
latencies in that order, the fault overlap of the queries that have any
(a k x 7 matrix) and a per-shard side table. Every view is then a mask,
a ``searchsorted`` or a left-to-right reduction over those columns, so
sums accumulate in the same float order as a per-record ``+=`` loop.
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
import operator
from typing import (
    Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.telemetry.querytrace import (
    _BLOCK_ROWS,
    COMPONENTS,
    QueryTraceCapture,
    QueryTraceRecord,
)

__all__ = ["Explanation", "explain_scenario", "explain_setup"]

#: Percentiles every profile table reports.
PERCENTILES = (50.0, 95.0, 99.0)

_NCOMP = len(COMPONENTS)
_COMPONENT_INDEX = {k: i for i, k in enumerate(COMPONENTS)}


def _check_real(value: Any, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(
            f"{name} must be a real number, got {type(value).__name__}"
        )


def _check_bounded(value: Any, name: str, high: float) -> None:
    """Reject anything but a finite real number in ``[0, high]``."""
    _check_real(value, name)
    if not (math.isfinite(value) and 0.0 <= value <= high):
        raise ValueError(
            f"{name} must be a finite number in [0, {high:g}], "
            f"got {value!r}"
        )


def _check_percentile(percentile: Any) -> None:
    _check_bounded(percentile, "percentile", 100.0)


def _check_windows(windows: Sequence[Any]) -> None:
    """Reject a fault window that is not ``(start_s, end_s, kind)`` with
    finite ``start_s <= end_s``."""
    for window in windows:
        try:
            start, end, _ = window
        except (TypeError, ValueError):
            raise ValueError(
                "fault_windows entries must be (start_s, end_s, kind), "
                f"got {window!r}"
            ) from None
        _check_real(start, "fault_windows start_s")
        _check_real(end, "fault_windows end_s")
        if not (math.isfinite(start) and math.isfinite(end) and start <= end):
            raise ValueError(
                "fault_windows entries need finite start_s <= end_s, "
                f"got {window!r}"
            )


def _view(compute):
    """Compute an :class:`Explanation` view once per argument list and
    hand each caller its own deep copy. Arguments key by type and value,
    so ``99`` and ``99.0`` each get back the percentile they gave."""

    @functools.wraps(compute)
    def view(self, *args, **kwargs):
        key = (compute, *((type(v), v) for v in args),
               *((k, type(v), v) for k, v in sorted(kwargs.items())))
        if key not in self._views:
            self._views[key] = compute(self, *args, **kwargs)
        return copy.deepcopy(self._views[key])
    return view


def _seq_sum(values: np.ndarray) -> np.ndarray:
    """Column sums of ``values`` accumulated left to right from 0.0 —
    the float order of a per-record ``+=`` loop (``np.sum`` would sum
    pairwise and differ in the last bits). Accumulates in place, so
    callers pass a fresh array (a mask selection)."""
    if not len(values):
        return np.zeros(values.shape[1:])
    return np.cumsum(values, axis=0, out=values)[-1] + 0.0


class _QidOrderRecords(Sequence):
    """A capture's completed queries in qid order, as
    :class:`QueryTraceRecord` views built when read."""

    __slots__ = ("_capture", "_rows")

    def __init__(self, capture: QueryTraceCapture, rows: np.ndarray) -> None:
        self._capture = capture
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[QueryTraceRecord, List[QueryTraceRecord]]:
        if isinstance(index, slice):
            return [
                QueryTraceRecord(self._capture, row)
                for row in self._rows[index].tolist()
            ]
        return QueryTraceRecord(
            self._capture, int(self._rows[operator.index(index)])
        )

    def __iter__(self) -> Iterator[QueryTraceRecord]:
        for lo in range(0, len(self._rows), _BLOCK_ROWS):
            for row in self._rows[lo:lo + _BLOCK_ROWS].tolist():
                yield QueryTraceRecord(self._capture, row)


class Explanation:
    """Attribution engine over one run's query-trace capture."""

    def __init__(
        self,
        capture: QueryTraceCapture,
        result: Any,
        *,
        fault_windows: Sequence[Tuple[float, float, str]] = (),
        meta: Optional[Dict[str, Any]] = None,
        fault_slack_s: float = 0.0,
    ) -> None:
        fault_windows = tuple(fault_windows)
        _check_windows(fault_windows)
        _check_bounded(fault_slack_s, "fault_slack_s", math.inf)
        self.capture = capture
        self.result = result
        self.fault_windows = fault_windows
        self.meta = dict(meta or {})
        self.fault_slack_s = float(fault_slack_s)
        self._sorted_lat = np.sort(
            np.asarray(result.latencies_s, dtype=float)
        )
        # percentile -> cutoff over ``_sorted_lat``, filled on first read.
        self._cutoffs: Dict[float, float] = {}
        # Each ``@_view`` table by its arguments, filled on first read.
        self._views: Dict[Tuple, Any] = {}
        if capture.completed > len(self._sorted_lat):
            raise ValueError(
                f"capture holds {capture.completed} completed queries but "
                f"result.latencies_s only {len(self._sorted_lat)}"
            )

        # The columns are read here and in each view, never kept: a live
        # view of the capture's storage would pin its arrays.
        cols = capture.columns()
        # Capture rows in qid order, and each row's place in that order.
        rows = np.argsort(cols["qid"], kind="stable")
        position = np.argsort(rows)
        self._rows = rows
        self._lat = cols["latency"][rows]
        # Queries by latency (ties in qid order), and each latency's
        # first slot in the full sorted population.
        self._lat_order = np.argsort(self._lat, kind="stable")
        self._base_slot = np.searchsorted(
            self._sorted_lat, self._lat, side="left"
        )
        self._build_overlap(cols, position)
        self._build_shard_table(cols, position)

    def _build_overlap(self, cols, position: np.ndarray) -> None:
        """Per-(query, component) fault-window overlap seconds, for the
        queries that have any.

        Each interval's overlap is the sum over the slack-widened
        windows, clamped to the interval width so overlapping windows
        never double count; intervals are worked a block at a time.
        Only nonzero overlaps are kept: the rest are ``+0.0`` (the
        minimum of non-negative values), which adds nothing to any sum.
        ``np.add.at`` folds the kept intervals, in interval order, into
        ``self._ov``, one row per query in ``self._ov_rows`` (sorted
        qid-order positions).
        """
        end, cover = cols["end"], cols["cover"]
        slack = self.fault_slack_s
        kept = [(np.empty(0, np.intp), np.empty(0, np.int8), np.empty(0))]
        for lo in range(0, end.size if self.fault_windows else 0, _BLOCK_ROWS):
            hi = end[lo:lo + _BLOCK_ROWS]
            at = np.arange(lo, lo + hi.size)
            row = np.searchsorted(cover, at, side="right")
            # An interval starts where the previous one ended; a query's
            # first interval starts at its arrival.
            first = at == np.where(row > 0, cover[row - 1], 0)
            start = np.where(first, cols["arrival"][row], end[at - 1])
            total = np.zeros(hi.size)
            for ws, we, _ in self.fault_windows:
                total += np.maximum(
                    0.0,
                    np.minimum(hi, we + slack) - np.maximum(start, ws - slack),
                )
            ov = np.minimum(total, hi - start)
            hit = ov != 0.0
            kept.append((position[row[hit]], cols["label"][at[hit]], ov[hit]))
        pos, label, ov = (np.concatenate(parts) for parts in zip(*kept))
        self._ov_rows = np.unique(pos)
        self._ov = np.zeros((len(self._ov_rows), _NCOMP))
        np.add.at(
            self._ov,
            (np.searchsorted(self._ov_rows, pos), label.astype(np.intp)),
            ov,
        )
        # Per-query total over components, summed left to right.
        self._ov_total = np.zeros(len(position))
        self._ov_total[self._ov_rows] = np.cumsum(self._ov, axis=1)[:, -1]

    def _build_shard_table(self, cols, position: np.ndarray) -> None:
        """Per-shard seconds as (query position, key, seconds) entries,
        in qid order; keys index ``self._shard_keys`` in order of first
        appearance."""
        pos = position[cols["shard_row"]]
        order = np.argsort(pos, kind="stable")
        keys: Dict[Tuple[int, int], int] = {}
        kid = [
            keys.setdefault(key, len(keys)) for key in zip(
                cols["shard_component"][order].tolist(),
                cols["shard"][order].tolist(),
            )
        ]
        names = self.capture.shard_names
        self._shard_keys = [(COMPONENTS[c], names[s]) for c, s in keys]
        self._shard_pos = pos[order]
        self._shard_kid = np.asarray(kid, dtype=np.intp)
        self._shard_secs = cols["shard_seconds"][order]

    # -- record selection ---------------------------------------------------

    @property
    def records(self) -> Sequence[QueryTraceRecord]:
        """Every completed query, in qid order: a read-only sequence of
        views, each built when read."""
        return _QidOrderRecords(self.capture, self._rows)

    def cutoff(self, percentile: float) -> float:
        _check_percentile(percentile)
        if not len(self._sorted_lat):
            return 0.0
        value = self._cutoffs.get(percentile)
        if value is None:
            value = float(np.percentile(self._sorted_lat, percentile))
            self._cutoffs[percentile] = value
        return value

    def _tail_mask(self, percentile: float) -> np.ndarray:
        return self._lat >= self.cutoff(percentile)

    def tail_records(self, percentile: float) -> List[QueryTraceRecord]:
        return [
            QueryTraceRecord(self.capture, row)
            for row in self._rows[self._tail_mask(percentile)].tolist()
        ]

    # -- attribution profiles ----------------------------------------------

    @_view
    def profile(self, percentile: float) -> Dict[str, Any]:
        """Mean component attribution over the queries at or above the
        given latency percentile of the full run."""
        cut = self.cutoff(percentile)
        mask = self._lat >= cut
        n = int(np.count_nonzero(mask))
        comps = self.capture.columns()["components"]
        sums = _seq_sum(comps[self._rows[mask]]).tolist()
        overlaps = _seq_sum(self._ov[mask[self._ov_rows]]).tolist()
        shard_sums = self._shard_sums(mask)
        total = sum(sums)
        components = {}
        for i, k in enumerate(COMPONENTS):
            components[k] = {
                "seconds": sums[i] / n if n else 0.0,
                "share": (sums[i] / total) if total > 0.0 else 0.0,
                "fault_overlap_share": (
                    overlaps[i] / sums[i] if sums[i] > 0.0 else 0.0
                ),
                "top_shard": self._top_shard(shard_sums, k),
            }
        return {
            "percentile": percentile,
            "cutoff_s": cut,
            "queries": n,
            "mean_latency_s": total / n if n else 0.0,
            "components": components,
        }

    def _shard_sums(self, mask: np.ndarray) -> Dict[str, Dict[str, float]]:
        """``{component: {shard: seconds}}`` over the masked records."""
        selected = mask[self._shard_pos]
        kid = self._shard_kid[selected]
        secs = self._shard_secs[selected]
        out: Dict[str, Dict[str, float]] = {}
        for key in np.unique(kid).tolist():
            comp, name = self._shard_keys[key]
            out.setdefault(comp, {})[name] = float(_seq_sum(secs[kid == key]))
        return out

    def mean_profile(self) -> Dict[str, Any]:
        """Exact mean attribution over all completed queries, from the
        capture's aggregates."""
        means = self.capture.mean_components()
        total = sum(means[k] for k in COMPONENTS)
        components = {}
        for k in COMPONENTS:
            components[k] = {
                "seconds": means[k],
                "share": (means[k] / total) if total > 0.0 else 0.0,
                "top_shard": self._top_shard(self.capture.shard_totals, k),
            }
        return {
            "percentile": None,
            "cutoff_s": 0.0,
            "queries": self.capture.completed,
            "mean_latency_s": total,
            "components": components,
        }

    @staticmethod
    def _top_shard(
        shard_sums: Dict[str, Dict[str, float]], component: str
    ) -> Optional[Dict[str, Any]]:
        shards = shard_sums.get(component)
        if not shards:
            return None
        name = max(sorted(shards), key=lambda s: shards[s])
        total = sum(shards[s] for s in sorted(shards))
        return {
            "shard": name,
            "seconds": shards[name],
            "share": shards[name] / total if total > 0.0 else 0.0,
        }

    def top_component(self, percentile: float = 99.0) -> Tuple[str, Dict]:
        """The component contributing the most seconds at a percentile."""
        prof = self.profile(percentile)
        comps = prof["components"]
        name = max(COMPONENTS, key=lambda k: comps[k]["seconds"])
        return name, comps[name]

    # -- what-if bounds -----------------------------------------------------

    def _knob_values(self, component: str) -> np.ndarray:
        """Seconds each query loses when ``component`` is zeroed, in qid
        order."""
        if component != "fault_windows":
            comps = self.capture.columns()["components"]
            return comps[self._rows, _COMPONENT_INDEX[component]]
        return np.minimum(self._ov_total, self._lat)

    @_view
    def what_if(
        self, component: str, percentile: float = 99.0
    ) -> Dict[str, Any]:
        """Bound the percentile improvement from zeroing one component.

        ``component`` is a name from
        :data:`~repro.telemetry.querytrace.COMPONENTS`, or
        ``"fault_windows"`` to zero only the interval mass overlapping
        injected fault windows. The bound re-walks every completed query
        with the component removed and recomputes the percentile over
        the full latency population; it does not re-simulate queueing
        relief, so treat it as the *direct* contribution of the knob.

        Each adjusted record replaces one slot of the sorted latency
        population: the first slot holding its latency, plus its rank
        (in qid order) among the adjusted records sharing that latency,
        so tied latencies fill consecutive slots.
        """
        if component != "fault_windows" and component not in COMPONENTS:
            raise ValueError(
                f"unknown component {component!r}; choose from "
                f"{COMPONENTS + ('fault_windows',)}"
            )
        _check_percentile(percentile)
        base = self._sorted_lat
        if not len(base):
            return {
                "component": component,
                "percentile": percentile,
                "observed_s": 0.0,
                "bound_s": 0.0,
                "improvement_s": 0.0,
            }
        values = self._knob_values(component)
        order = self._lat_order
        order = order[values[order] > 0.0]
        lat = self._lat[order]
        rank = np.arange(len(order)) - np.searchsorted(lat, lat, side="left")
        slot = self._base_slot[order] + rank
        fits = slot < len(base)
        adjusted = base.copy()
        adjusted[slot[fits]] = lat[fits] - values[order[fits]]
        observed = self.cutoff(percentile)
        bound = float(np.percentile(adjusted, percentile))
        return {
            "component": component,
            "percentile": percentile,
            "observed_s": observed,
            "bound_s": bound,
            "improvement_s": observed - bound,
        }

    @_view
    def what_if_table(self, percentile: float = 99.0) -> List[Dict[str, Any]]:
        """What-if bounds for every component with nonzero mass, plus
        the fault-window knob when faults were injected. Sorted by
        improvement, largest first."""
        _check_percentile(percentile)
        rows = []
        totals = self.capture.component_totals
        for k in COMPONENTS:
            if totals[k] > 0.0:
                rows.append(self.what_if(k, percentile))
        if self.fault_windows:
            rows.append(self.what_if("fault_windows", percentile))
        rows.sort(key=lambda r: r["improvement_s"], reverse=True)
        return rows

    # -- fault-window attribution (the CI gate) -----------------------------

    @_view
    def fault_attribution(
        self, percentile: float = 99.0, majority: float = 0.5
    ) -> Dict[str, Any]:
        """Attribute the tail excursion to fault-window overlap.

        The excursion of a tail query is its latency above the run
        median; the attributed share is how much of that excursion lies
        in component intervals overlapping injected fault windows. The
        check passes when the share reaches ``majority`` *and* the top
        p-percentile component is itself fault-correlated (most of its
        tail seconds overlap the windows).
        """
        _check_bounded(majority, "majority", 1.0)
        top_name, top = self.top_component(percentile)
        baseline = self.cutoff(50.0)
        exc = np.maximum(self._lat - baseline, 0.0)
        counted = self._tail_mask(percentile) & (exc > 0.0)
        excursion = float(_seq_sum(exc[counted]))
        overlap_mass = float(_seq_sum(np.minimum(
            self._ov_total[counted], exc[counted]
        )))
        share = overlap_mass / excursion if excursion > 0.0 else 0.0
        top_correlated = top.get("fault_overlap_share", 0.0) >= majority
        return {
            "percentile": percentile,
            "majority": majority,
            "baseline_s": baseline,
            "excursion_s": excursion,
            "overlap_s": overlap_mass,
            "excursion_share": share,
            "top_component": top_name,
            "top_component_share": top["share"],
            "top_fault_overlap_share": top.get("fault_overlap_share", 0.0),
            "top_is_fault_correlated": top_correlated,
            "windows": len(self.fault_windows),
            "ok": bool(
                self.fault_windows and share >= majority and top_correlated
            ),
        }

    # -- per-query drill-down -----------------------------------------------

    def top_queries(self, n: int = 5) -> List[Dict[str, Any]]:
        """The ``n`` slowest queries with their decomposition."""
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise TypeError(f"n must be an int, got {type(n).__name__}")
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        # Stable on the negated latency: ties stay in qid order.
        slowest = np.argsort(-self._lat, kind="stable")[:int(n)]
        rows = self._rows[slowest].tolist()
        attempts = self.capture.columns()["attempts"][rows].tolist()
        out = []
        for row, tries in zip(rows, attempts):
            rec = QueryTraceRecord(self.capture, row)
            out.append({
                "qid": rec.qid,
                "latency_s": rec.latency,
                "arrival_s": rec.arrival,
                "completion_s": rec.completion,
                "attempts": tries,
                "dominant": rec.dominant_component(),
                "components": rec.components,
            })
        return out

    # -- exports ------------------------------------------------------------

    def attribution_section(self) -> Dict[str, float]:
        """Flat float map for the optional RunRecord ``attribution``
        section (``repro diff`` compares it as its own level)."""
        out: Dict[str, float] = {}
        means = self.capture.mean_components()
        for k in COMPONENTS:
            out[f"mean.{k}_s"] = float(means[k])
        p99 = self.profile(99.0)
        for k in COMPONENTS:
            out[f"p99.{k}_s"] = float(p99["components"][k]["seconds"])
        if self.fault_windows:
            out["p99.fault_overlap_share"] = float(
                self.fault_attribution(99.0)["excursion_share"]
            )
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON document (the ``--format json`` payload)."""
        doc: Dict[str, Any] = {
            "meta": dict(self.meta),
            "coverage": {
                "completed": float(self.capture.completed),
                "shed": float(self.capture.shed_queries),
                "dropped": float(self.capture.dropped_queries),
            },
            "profiles": {
                f"p{p:g}": self.profile(p) for p in PERCENTILES
            },
            "mean": self.mean_profile(),
            "what_if": self.what_if_table(99.0),
            "top_queries": self.top_queries(5),
            "fault_windows": [
                {"start_s": ws, "end_s": we, "kind": kind}
                for ws, we, kind in self.fault_windows
            ],
        }
        if self.fault_windows:
            doc["fault_attribution"] = self.fault_attribution(99.0)
        return doc


def explain_scenario(
    model: str,
    platform: str,
    scenario: str,
    *,
    capture: Optional[QueryTraceCapture] = None,
    **recipe_fields: Any,
) -> Tuple[Explanation, Any]:
    """Build the setup of ``ScenarioRecipe(model, platform, scenario,
    **recipe_fields)`` and explain its monitored run with
    :func:`explain_setup`. Returns ``(explanation, monitored_scenario)``,
    mirroring :func:`~repro.monitor.run_monitored_scenario`."""
    from repro.monitor.scenario import ScenarioRecipe, build_scenario

    recipe = ScenarioRecipe(model, platform, scenario, **recipe_fields)
    return explain_setup(build_scenario(recipe), capture)


def explain_setup(
    setup: Any, capture: Optional[QueryTraceCapture] = None
) -> Tuple[Explanation, Any]:
    """Run a built scenario under query-trace capture and explain it:
    the shared glue the CLI and the golden tests both call. Returns
    ``(explanation, monitored_scenario)``.

    The fault-overlap slack is the scenario's telemetry window, so
    batches that started inside a fault window but finished just after
    it still count as overlapping.
    """
    from repro.monitor.scenario import monitor_setup

    qt = capture if capture is not None else QueryTraceCapture()
    ms = monitor_setup(setup, qt)
    meta_keys = (
        "model", "platform", "scenario", "seed", "queries", "qps",
        "deadline_s", "horizon_s", "fallback",
    )
    exp = Explanation(
        qt,
        ms.result,
        fault_windows=ms.fault_windows(),
        meta={key: getattr(ms, key) for key in meta_keys},
        fault_slack_s=ms.window_s,
    )
    return exp, ms
