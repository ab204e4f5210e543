"""Simulated-clock time-series telemetry: ring-buffered windowed tracks.

The metrics registry and run ledger summarize a whole run into one
number per metric — a p99 spike during a ten-second GPU throttle window
is invisible in a five-minute aggregate. This module adds the
time-resolved layer: a :class:`TimeSeries` buckets events into fixed
windows of *simulated* time (the discrete-event schedulers' clock, not
wall clock) and keeps one accumulator per (track, window):

* **counter** tracks — arrivals, completions, fault activity (also
  interval counters: server busy-seconds split across the windows a
  batch overlaps, the direct M/M/1 utilization signal);
* **gauge** tracks — queue depth, batch occupancy (count/sum/min/max
  and the last-set value per window);
* **histogram** tracks — per-window
  :class:`~repro.telemetry.histogram.StreamingHistogram`\\ s, so every
  window answers exact p50/p95/p99 (and violating-fraction) queries
  while small and degrades gracefully past ``exact_cap``;
* **state** tracks — categorical per-replica health timelines
  (``healthy`` / ``degraded`` / ``crashed`` / ``breaker_open``), one
  occurrence count per state per window.

Windows are ring-buffered: the series keeps the ``max_windows``
windows ending at the latest one seen; older windows are evicted and
later emissions into them are dropped (both counted in
:attr:`TimeSeries.evicted_windows`), so memory stays bounded on
arbitrarily long simulations. What is kept does not depend on the
order events arrive in.

Every recording method has an array form (``count_each``,
``sample_each``, ``observe_each``, ``count_interval_each``,
``mark_state_each``) that records whole columns of events at once and
leaves the state the scalar calls would, bit for bit: per-window float
sums are taken in emission order and state cells keep the order their
states first occurred in. The resilient serving engine fills its series
this way after a run.

Serialization mirrors the histogram machinery: :meth:`TimeSeries.
to_state` is lossless (per-window histogram states ride along via
``StreamingHistogram.to_state``), while :meth:`TimeSeries.
compact_state` collapses each window histogram to
``[count, sum, p50, p95, p99]`` — the byte-stable form a
:class:`~repro.ledger.RunRecord` embeds. :class:`TimeSeriesSummary`
is the read-side view both forms (and the monitor / dashboard layers)
share.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.histogram import StreamingHistogram

__all__ = ["TimeSeries", "TimeSeriesSummary", "DEFAULT_WINDOW_QUANTILES"]

#: Quantiles every histogram track summarizes per window.
DEFAULT_WINDOW_QUANTILES = (50.0, 95.0, 99.0)

#: Serialized-state version (bumped on incompatible layout changes).
STATE_VERSION = 1


def _check_finite(arg: str, t: float) -> None:
    if not math.isfinite(t):
        raise ValueError(f"{arg} must be finite, got {t!r}")


def _finite_times(arg: str, times: Sequence[float]) -> np.ndarray:
    arr = np.asarray(times, dtype=float).reshape(-1)
    if not np.isfinite(arr).all():
        raise ValueError(f"{arg} must all be finite")
    return arr


def _aligned(
    times: np.ndarray, values: Sequence[float],
    times_arg: str = "times", values_arg: str = "values",
) -> np.ndarray:
    """``values`` as a flat float array the length of ``times``."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size != times.size:
        raise ValueError(
            f"{times_arg} and {values_arg} must align, got {times.size} vs "
            f"{arr.size}"
        )
    return arr


def _check_observations(values: np.ndarray) -> None:
    if np.isnan(values).any() or (values < 0).any():
        raise ValueError("histogram observations must be >= 0 and not NaN")


def _kept(
    indices: np.ndarray, values: np.ndarray, floor: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The events whose window is at or above ``floor``, in order."""
    if indices.min() >= floor:
        return indices, values
    keep = indices >= floor
    return indices[keep], values[keep]


def _by_window(indices: np.ndarray) -> Tuple[List[int], np.ndarray, np.ndarray]:
    """Group events by window, keeping emission order inside a window.

    Returns the windows in ascending order, the event positions sorted
    by (window, position), and each window's bounds into that order.
    """
    order = np.argsort(indices, kind="stable")
    ordered = indices[order]
    if ordered.size == 0:
        return [], order, np.zeros(1, dtype=np.intp)
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    bounds = np.concatenate(([0], cuts, [ordered.size]))
    return ordered[bounds[:-1]].tolist(), order, bounds


def _ordered_sums(
    first: Sequence[float], values: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """``first[g] + v0 + v1 + ...`` over ``values[bounds[g]:bounds[g + 1]]``
    for every group ``g``, added left to right as a ``+=`` loop would, so
    each sum is the loop's bit for bit (``ndarray.sum`` adds pairwise).

    Runs one cumulative sum per group, or one vector add per position
    within the groups, whichever takes fewer steps.
    """
    sums = np.array(first, dtype=float)
    sizes = np.diff(bounds)
    if sizes.size == 0:
        return sums
    longest = int(sizes.max())
    if sizes.size <= longest:
        edges = bounds.tolist()
        for g, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            run = np.concatenate((sums[g:g + 1], values[lo:hi]))
            sums[g] = np.cumsum(run)[-1]
        return sums
    group = np.repeat(np.arange(sizes.size), sizes)
    rank = np.arange(values.size) - np.repeat(bounds[:-1], sizes)
    by_rank = np.argsort(rank, kind="stable")
    steps = np.searchsorted(rank[by_rank], np.arange(longest + 1)).tolist()
    for lo, hi in zip(steps[:-1], steps[1:]):
        # Step k adds every group's k-th value; no group repeats in it.
        at = by_rank[lo:hi]
        sums[group[at]] += values[at]
    return sums


def _accumulate(
    windows: Dict[int, float], indices: np.ndarray, amounts: np.ndarray
) -> None:
    """Add ``amounts[k]`` to counter cell ``indices[k]`` for every ``k``,
    in order (:meth:`_CounterTrack.add` per event, bit for bit)."""
    if indices.size == 0:
        return
    keys, order, bounds = _by_window(indices)
    first = [windows.get(key, 0.0) for key in keys]
    sums = _ordered_sums(first, amounts[order], bounds)
    windows.update(zip(keys, sums.tolist()))


class _CounterTrack:
    kind = "counter"

    __slots__ = ("windows",)

    def __init__(self) -> None:
        self.windows: Dict[int, float] = {}

    def add(self, index: int, amount: float) -> None:
        self.windows[index] = self.windows.get(index, 0.0) + amount

    def summary_value(self, index: int) -> float:
        return self.windows.get(index, 0.0)

    def state_rows(self) -> List[List[Any]]:
        return [[i, self.windows[i]] for i in sorted(self.windows)]


class _GaugeTrack:
    kind = "gauge"

    __slots__ = ("windows",)

    def __init__(self) -> None:
        # window -> [count, sum, min, max, last]
        self.windows: Dict[int, List[float]] = {}

    def sample(self, index: int, value: float) -> None:
        value = float(value)
        cell = self.windows.get(index)
        if cell is None:
            self.windows[index] = [1, value, value, value, value]
        else:
            cell[0] += 1
            cell[1] += value
            if value < cell[2]:
                cell[2] = value
            if value > cell[3]:
                cell[3] = value
            cell[4] = value

    def summary_value(self, index: int) -> Optional[Dict[str, float]]:
        cell = self.windows.get(index)
        if cell is None:
            return None
        count, total, lo, hi, last = cell
        return {
            "count": int(count),
            "mean": total / count,
            "min": lo,
            "max": hi,
            "last": last,
        }

    def state_rows(self) -> List[List[Any]]:
        return [[i, list(self.windows[i])] for i in sorted(self.windows)]


class _HistogramTrack:
    kind = "histogram"

    __slots__ = ("windows", "hist_kwargs")

    def __init__(self, hist_kwargs: Optional[Mapping[str, Any]] = None) -> None:
        self.windows: Dict[int, StreamingHistogram] = {}
        self.hist_kwargs = dict(hist_kwargs or {})

    def _hist(self, index: int) -> StreamingHistogram:
        hist = self.windows.get(index)
        if hist is None:
            hist = self.windows[index] = StreamingHistogram(**self.hist_kwargs)
        return hist

    def observe(self, index: int, value: float) -> None:
        self._hist(index).observe(value)

    def summary_value(self, index: int) -> Optional[Dict[str, float]]:
        hist = self.windows.get(index)
        if hist is None or hist.count == 0:
            return None
        out = {"count": hist.count, "sum": hist.total}
        snap = hist.snapshot(DEFAULT_WINDOW_QUANTILES)
        for q in DEFAULT_WINDOW_QUANTILES:
            out[f"p{q:g}"] = snap.quantiles[q]
        return out

    def state_rows(self) -> List[List[Any]]:
        return [[i, self.windows[i].to_state()] for i in sorted(self.windows)]

    def compact_rows(self) -> List[List[Any]]:
        rows = []
        for i in sorted(self.windows):
            hist = self.windows[i]
            if hist.count == 0:
                continue
            snap = hist.snapshot(DEFAULT_WINDOW_QUANTILES)
            rows.append(
                [i, [hist.count, hist.total]
                 + [snap.quantiles[q] for q in DEFAULT_WINDOW_QUANTILES]]
            )
        return rows


class _StateTrack:
    kind = "state"

    __slots__ = ("windows",)

    def __init__(self) -> None:
        # window -> {state name: occurrence count}
        self.windows: Dict[int, Dict[str, int]] = {}

    def mark(self, index: int, state: str, count: int = 1) -> None:
        cell = self.windows.setdefault(index, {})
        cell[state] = cell.get(state, 0) + count

    def summary_value(self, index: int) -> Optional[Dict[str, int]]:
        cell = self.windows.get(index)
        return dict(cell) if cell else None

    def state_rows(self) -> List[List[Any]]:
        return [
            [i, {k: self.windows[i][k] for k in sorted(self.windows[i])}]
            for i in sorted(self.windows)
        ]


_TRACK_TYPES = {
    "counter": _CounterTrack,
    "gauge": _GaugeTrack,
    "histogram": _HistogramTrack,
    "state": _StateTrack,
}


class TimeSeries:
    """Windowed multi-track telemetry on a simulated clock.

    One instance covers one simulation run: the schedulers emit into it
    with the event times they already compute, so collection changes
    no arithmetic and no RNG draws (the fault-off bit-identical
    guarantee is pinned in tests).
    """

    def __init__(
        self,
        window_s: float,
        max_windows: int = 4096,
        origin_s: float = 0.0,
    ) -> None:
        if not math.isfinite(window_s) or window_s <= 0:
            raise ValueError(f"window_s must be positive and finite, got {window_s}")
        if max_windows < 1:
            raise ValueError(f"max_windows must be >= 1, got {max_windows}")
        self.window_s = float(window_s)
        self.max_windows = int(max_windows)
        self.origin_s = float(origin_s)
        self.evicted_windows = 0
        self._tracks: Dict[str, Any] = {}
        # Lowest window ever seen (kept or not), first kept window, and
        # highest window seen; None until the first emission.
        self._lowest: Optional[int] = None
        self._floor: Optional[int] = None
        self._max_window: Optional[int] = None
        self._lock = threading.Lock()

    # -- windows -------------------------------------------------------------

    def window_index(self, t: float) -> int:
        """The window covering simulated time ``t`` (clamped below origin)."""
        _check_finite("t", t)
        return max(int(math.floor((t - self.origin_s) / self.window_s)), 0)

    def _indices(self, arg: str, times: Sequence[float]) -> np.ndarray:
        """:meth:`window_index` of every time in ``times`` (named ``arg``
        in the error a non-finite time raises)."""
        scaled = _finite_times(arg, times) - self.origin_s
        scaled /= self.window_s
        indices = np.floor(scaled, out=scaled).astype(np.intp)
        return np.maximum(indices, 0, out=indices)

    def window_start(self, index: int) -> float:
        return self.origin_s + index * self.window_s

    def window_bounds(self, index: int) -> Tuple[float, float]:
        start = self.window_start(index)
        return (start, start + self.window_s)

    def window_indices(self) -> List[int]:
        """Contiguous index range [first kept, max seen] (empty if no data)."""
        if self._floor is None:
            return []
        return list(range(self._floor, self._max_window + 1))

    def _admit(self, index: int) -> bool:
        """Note an emission into window ``index`` before it is recorded.

        Returns whether the window is kept. The ring keeps the
        ``max_windows`` windows ending at the highest one seen; an
        emission below them is dropped without scanning the tracks.
        ``evicted_windows`` is the first kept window minus the lowest
        window ever seen, so it does not depend on emission order.
        """
        floor = self._floor
        if floor is None:
            self._lowest = self._floor = self._max_window = index
            return True
        if floor <= index <= self._max_window:
            return True
        lowest = self._lowest
        before = floor - lowest
        if index > self._max_window:
            self._max_window = index
        elif index < lowest:
            self._lowest = lowest = index
        new_floor = max(lowest, self._max_window - self.max_windows + 1)
        self.evicted_windows += (new_floor - lowest) - before
        if new_floor > floor:
            self._evict(floor, new_floor)
        self._floor = new_floor
        return index >= new_floor

    def _admit_all(self, indices: np.ndarray) -> int:
        """:meth:`_admit` a non-empty array of windows; the first kept
        window afterwards (every kept window is at or above it)."""
        self._admit(int(indices.min()))
        self._admit(int(indices.max()))
        return self._floor

    def _evict(self, old_floor: int, new_floor: int) -> None:
        """Drop every stored window in ``[old_floor, new_floor)``."""
        for track in self._tracks.values():
            windows = track.windows
            if new_floor - old_floor <= len(windows):
                for index in range(old_floor, new_floor):
                    windows.pop(index, None)
            else:
                for index in [i for i in windows if i < new_floor]:
                    del windows[index]

    # -- track access --------------------------------------------------------

    def _track(self, name: str, kind: str, **kwargs: Any):
        track = self._tracks.get(name)
        if track is None:
            with self._lock:
                track = self._tracks.get(name)
                if track is None:
                    track = _TRACK_TYPES[kind](**kwargs) if kwargs else (
                        _TRACK_TYPES[kind]()
                    )
                    self._tracks[name] = track
        if track.kind != kind:
            raise ValueError(
                f"track {name!r} is a {track.kind} track, not {kind}"
            )
        return track

    def track_names(self, kind: Optional[str] = None) -> List[str]:
        return sorted(
            name for name, t in self._tracks.items()
            if kind is None or t.kind == kind
        )

    def track_kind(self, name: str) -> str:
        return self._tracks[name].kind

    # -- recording -----------------------------------------------------------

    def count(self, name: str, t: float, amount: float = 1.0) -> None:
        """Add ``amount`` to counter track ``name`` at time ``t``."""
        index = self.window_index(t)
        track = self._track(name, "counter")
        if self._admit(index):
            track.add(index, float(amount))

    def count_many(self, name: str, times: Sequence[float]) -> None:
        """Add one count per time in ``times`` (vectorized bucketing)."""
        indices = self._indices("times", times)
        if indices.size == 0:
            return
        track = self._track(name, "counter")
        floor = self._admit_all(indices)
        counts = np.bincount(indices)
        for index in np.nonzero(counts[floor:])[0] + floor:
            track.add(int(index), float(counts[index]))

    def count_each(
        self,
        name: str,
        times: Sequence[float],
        amounts: Optional[Sequence[float]] = None,
    ) -> None:
        """:meth:`count` of ``amounts[k]`` (default 1) at ``times[k]``,
        for every ``k`` in order: the same state, bit for bit."""
        indices = self._indices("times", times)
        if amounts is None:
            values = np.ones(indices.size)
        else:
            values = _aligned(indices, amounts)
        if indices.size == 0:
            return
        track = self._track(name, "counter")
        floor = self._admit_all(indices)
        _accumulate(track.windows, *_kept(indices, values, floor))

    def count_interval(self, name: str, start: float, end: float) -> None:
        """Add the seconds of [start, end) overlapping each window.

        This is how server busy time lands: a batch spanning three
        windows contributes its per-window overlap to each, so the
        track integrates to true busy seconds and per-window
        ``busy / window_s`` is the utilization (the M/M/1 rho).
        """
        _check_finite("start", start)
        _check_finite("end", end)
        if end <= start:
            return
        first = self.window_index(start)
        last = self.window_index(max(end - 1e-12, start))
        track = self._track(name, "counter")
        self._admit(first)
        self._admit(last)
        for index in range(max(first, self._floor), last + 1):
            lo, hi = self.window_bounds(index)
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0:
                track.add(index, overlap)

    def count_interval_each(
        self, name: str, starts: Sequence[float], ends: Sequence[float]
    ) -> None:
        """:meth:`count_interval` of ``[starts[k], ends[k])`` for every
        ``k`` in order: the same overlaps, summed in the same order."""
        start = _finite_times("starts", starts)
        end = _finite_times("ends", ends)
        _aligned(start, end, "starts", "ends")
        busy = end > start
        if not busy.any():
            return
        start, end = start[busy], end[busy]
        first = self._indices("starts", start)
        last = self._indices("ends", np.maximum(end - 1e-12, start))
        track = self._track(name, "counter")
        self._admit(int(first.min()))
        floor = self._admit_all(last)
        # One piece per (interval, window it touches), in the scalar
        # loop's order: intervals in turn, windows ascending.
        spans = last - first + 1
        owner = np.repeat(np.arange(spans.size), spans)
        offset = np.arange(owner.size) - np.repeat(np.cumsum(spans) - spans, spans)
        index = first[owner] + offset
        lo = self.origin_s + index * self.window_s
        overlap = np.minimum(end[owner], lo + self.window_s) - np.maximum(
            start[owner], lo
        )
        keep = (overlap > 0) & (index >= floor)
        _accumulate(track.windows, index[keep], overlap[keep])

    def sample(self, name: str, t: float, value: float) -> None:
        """Record one gauge sample (queue depth, occupancy) at ``t``."""
        index = self.window_index(t)
        track = self._track(name, "gauge")
        if self._admit(index):
            track.sample(index, value)

    def sample_each(
        self, name: str, times: Sequence[float], values: Sequence[float]
    ) -> None:
        """:meth:`sample` of ``values[k]`` at ``times[k]`` for every
        ``k`` in order: the same state, bit for bit."""
        indices = self._indices("times", times)
        values = _aligned(indices, values)
        if indices.size == 0:
            return
        track = self._track(name, "gauge")
        floor = self._admit_all(indices)
        indices, values = _kept(indices, values, floor)
        windows, order, bounds = _by_window(indices)
        values = values[order]
        # A new cell's sum starts at -0.0: -0.0 + x is x for every x.
        cells = [track.windows.get(index) for index in windows]
        sums = _ordered_sums(
            [-0.0 if cell is None else cell[1] for cell in cells],
            values, bounds,
        ).tolist()
        for index, cell, total, lo, hi in zip(
            windows, cells, sums, bounds[:-1].tolist(), bounds[1:].tolist()
        ):
            chunk = values[lo:hi].tolist()
            if cell is None:
                first = chunk[0]
                cell = track.windows[index] = [0, 0.0, first, first, first]
            cell[0] += len(chunk)
            cell[1] = total
            # min/max fold left to right with strict comparisons, as
            # sample does, so ties and NaN resolve the same way.
            cell[2] = min(cell[2], *chunk)
            cell[3] = max(cell[3], *chunk)
            cell[4] = chunk[-1]

    def observe(self, name: str, t: float, value: float, **hist_kwargs: Any) -> None:
        """Record one histogram observation into ``t``'s window."""
        index = self.window_index(t)
        track = self._track(name, "histogram", hist_kwargs=hist_kwargs)
        if self._admit(index):
            track.observe(index, value)

    def observe_each(
        self,
        name: str,
        times: Sequence[float],
        values: Sequence[float],
        **hist_kwargs: Any,
    ) -> None:
        """:meth:`observe` of ``values[k]`` at ``times[k]`` for every
        ``k`` in order: the same state, bit for bit (see
        :meth:`StreamingHistogram.observe_each`)."""
        indices = self._indices("times", times)
        values = _aligned(indices, values)
        if indices.size == 0:
            return
        _check_observations(values)
        track = self._track(name, "histogram", hist_kwargs=hist_kwargs)
        floor = self._admit_all(indices)
        indices, values = _kept(indices, values, floor)
        windows, order, bounds = _by_window(indices)
        values = values[order]
        for index, lo, hi in zip(windows, bounds[:-1].tolist(), bounds[1:].tolist()):
            track._hist(index).observe_each(values[lo:hi])

    def mark_state(self, name: str, t: float, state: str, count: int = 1) -> None:
        """Record a categorical state occurrence (health timelines)."""
        index = self.window_index(t)
        track = self._track(name, "state")
        if self._admit(index):
            track.mark(index, state, count)

    def mark_state_each(
        self, name: str, times: Sequence[float], states: Sequence[str]
    ) -> None:
        """:meth:`mark_state` of ``states[k]`` at ``times[k]`` for every
        ``k`` in order; each window's states keep the order they first
        occurred in."""
        indices = self._indices("times", times)
        states = list(states)
        if len(states) != indices.size:
            raise ValueError(
                f"times and states must align, got {indices.size} vs {len(states)}"
            )
        if indices.size == 0:
            return
        track = self._track(name, "state")
        floor = self._admit_all(indices)
        for index, state in zip(indices.tolist(), states):
            if index >= floor:
                track.mark(index, state)

    def mark_state_interval(
        self, name: str, start: float, end: float, state: str
    ) -> None:
        """Mark ``state`` in every window [start, end) touches."""
        _check_finite("start", start)
        _check_finite("end", end)
        if end <= start:
            return
        first = self.window_index(start)
        last = self.window_index(max(end - 1e-12, start))
        track = self._track(name, "state")
        self._admit(first)
        self._admit(last)
        for index in range(max(first, self._floor), last + 1):
            track.mark(index, state)

    # -- reading -------------------------------------------------------------

    def window_histogram(self, name: str, index: int) -> Optional[StreamingHistogram]:
        track = self._tracks.get(name)
        if track is None or track.kind != "histogram":
            return None
        return track.windows.get(index)

    def counter_value(self, name: str, index: int) -> float:
        track = self._tracks.get(name)
        if track is None or track.kind != "counter":
            return 0.0
        return track.windows.get(index, 0.0)

    def summary(self) -> "TimeSeriesSummary":
        """Collapse to the plain-data per-window view (see module doc)."""
        rows: Dict[int, Dict[str, Any]] = {}
        tracks = sorted(self._tracks.items())
        for index in self.window_indices():
            row: Dict[str, Any] = {}
            for name, track in tracks:
                value = track.summary_value(index)
                if value is not None and value != 0.0 or (
                    isinstance(value, (int, float)) and value
                ):
                    row[name] = value
            rows[index] = row
        return TimeSeriesSummary(
            window_s=self.window_s,
            origin_s=self.origin_s,
            rows=rows,
            track_kinds={n: t.kind for n, t in self._tracks.items()},
            evicted_windows=self.evicted_windows,
        )

    # -- serialization -------------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """Lossless JSON-safe dump (histograms keep full state)."""
        return {
            "version": STATE_VERSION,
            "window_s": self.window_s,
            "origin_s": self.origin_s,
            "max_windows": self.max_windows,
            "evicted_windows": self.evicted_windows,
            "tracks": {
                name: {"type": track.kind, "windows": track.state_rows()}
                for name, track in sorted(self._tracks.items())
            },
        }

    def compact_state(self) -> Dict[str, Any]:
        """Byte-stable compact dump for run-ledger records.

        Counter / gauge / state tracks serialize in full (they are
        already small); histogram tracks collapse to per-window
        ``[count, sum, p50, p95, p99]``. The result round-trips through
        :meth:`TimeSeriesSummary.from_compact_state`.
        """
        tracks: Dict[str, Any] = {}
        for name, track in sorted(self._tracks.items()):
            if track.kind == "histogram":
                tracks[name] = {
                    "type": "histogram_summary",
                    "windows": track.compact_rows(),
                }
            else:
                tracks[name] = {
                    "type": track.kind,
                    "windows": track.state_rows(),
                }
        return {
            "version": STATE_VERSION,
            "window_s": self.window_s,
            "origin_s": self.origin_s,
            "evicted_windows": self.evicted_windows,
            "tracks": tracks,
        }


class TimeSeriesSummary:
    """Plain-data per-window view shared by live and persisted series.

    ``rows`` maps window index to ``{track: value}`` where the value is
    a float (counter), ``{count, mean, min, max, last}`` (gauge),
    ``{count, sum, p50, p95, p99}`` (histogram), or
    ``{state: occurrences}`` (state). The monitor and dashboard layers
    only ever read this shape, so they work identically on a live
    :class:`TimeSeries` and on the compact section of a persisted
    :class:`~repro.ledger.RunRecord`.
    """

    def __init__(
        self,
        window_s: float,
        origin_s: float,
        rows: Dict[int, Dict[str, Any]],
        track_kinds: Optional[Dict[str, str]] = None,
        evicted_windows: int = 0,
    ) -> None:
        self.window_s = float(window_s)
        self.origin_s = float(origin_s)
        self.rows = rows
        self.track_kinds = dict(track_kinds or {})
        self.evicted_windows = int(evicted_windows)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_compact_state(cls, state: Mapping[str, Any]) -> "TimeSeriesSummary":
        """Rebuild the summary view from :meth:`TimeSeries.compact_state`."""
        version = state.get("version")
        if version != STATE_VERSION:
            raise ValueError(
                f"unsupported time-series state version {version!r}; this "
                f"build reads version {STATE_VERSION}"
            )
        rows: Dict[int, Dict[str, Any]] = {}
        kinds: Dict[str, str] = {}

        def row(index: int) -> Dict[str, Any]:
            return rows.setdefault(int(index), {})

        for name, payload in state.get("tracks", {}).items():
            kind = payload["type"]
            windows = payload.get("windows", [])
            if kind == "histogram_summary":
                kinds[name] = "histogram"
                for index, cell in windows:
                    count, total = cell[0], cell[1]
                    value = {"count": int(count), "sum": float(total)}
                    for q, v in zip(DEFAULT_WINDOW_QUANTILES, cell[2:]):
                        value[f"p{q:g}"] = float(v)
                    row(index)[name] = value
            elif kind == "counter":
                kinds[name] = "counter"
                for index, value in windows:
                    if value:
                        row(index)[name] = float(value)
            elif kind == "gauge":
                kinds[name] = "gauge"
                for index, cell in windows:
                    count = int(cell[0])
                    if count == 0:
                        continue
                    row(index)[name] = {
                        "count": count,
                        "mean": float(cell[1]) / count,
                        "min": float(cell[2]),
                        "max": float(cell[3]),
                        "last": float(cell[4]),
                    }
            elif kind == "state":
                kinds[name] = "state"
                for index, cell in windows:
                    if cell:
                        row(index)[name] = {
                            str(k): int(v) for k, v in dict(cell).items()
                        }
            else:
                raise ValueError(f"unknown track type {kind!r} for {name!r}")
        if rows:
            lo, hi = min(rows), max(rows)
            for index in range(lo, hi + 1):
                rows.setdefault(index, {})
        return cls(
            window_s=float(state["window_s"]),
            origin_s=float(state.get("origin_s", 0.0)),
            rows=rows,
            track_kinds=kinds,
            evicted_windows=int(state.get("evicted_windows", 0)),
        )

    # -- reading -------------------------------------------------------------

    def window_indices(self) -> List[int]:
        return sorted(self.rows)

    def window_start(self, index: int) -> float:
        return self.origin_s + index * self.window_s

    def track_names(self, kind: Optional[str] = None) -> List[str]:
        return sorted(
            n for n, k in self.track_kinds.items() if kind is None or k == kind
        )

    def counter(self, name: str, index: int) -> float:
        value = self.rows.get(index, {}).get(name)
        return float(value) if isinstance(value, (int, float)) else 0.0

    def gauge(self, name: str, index: int) -> Optional[Dict[str, float]]:
        value = self.rows.get(index, {}).get(name)
        return value if isinstance(value, dict) else None

    def histogram_summary(self, name: str, index: int) -> Optional[Dict[str, float]]:
        value = self.rows.get(index, {}).get(name)
        return value if isinstance(value, dict) else None

    def percentile(self, name: str, index: int, p: float) -> Optional[float]:
        cell = self.histogram_summary(name, index)
        if cell is None:
            return None
        return cell.get(f"p{p:g}")

    def states(self, name: str, index: int) -> Dict[str, int]:
        value = self.rows.get(index, {}).get(name)
        return dict(value) if isinstance(value, dict) else {}

    def fault_tracks(self) -> List[str]:
        """Counter tracks recording fault-injection activity."""
        return [
            n for n in self.track_names("counter") if n.startswith("faults.")
        ]

    def fault_activity(self, index: int) -> float:
        """Total fault events recorded in one window (0 = clean)."""
        return sum(self.counter(n, index) for n in self.fault_tracks())

    def utilization(self, index: int, busy_track: str = "busy_s") -> float:
        """Per-window server utilization: busy seconds / window length."""
        return self.counter(busy_track, index) / self.window_s
