"""Tests for the windowed time-series telemetry layer.

Covers window bucketing (point, vectorized, and interval recording),
the four track types, ring eviction, the lossless and compact
serializations, Perfetto counter export, and — the merge contract the
at-scale story depends on — property tests that merging randomly
window-split shards reproduces the single-series result exactly,
including the histograms' exact-regime state (an empty window is a
strict no-op, never an exactness downgrade).
"""

import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry import TimeSeries, TimeSeriesSummary
from repro.telemetry.chrome_trace import (
    COUNTER_PID,
    timeseries_to_counter_events,
)


def _filled_series(seed: int = 7, window_s: float = 0.5) -> TimeSeries:
    """A small series exercising every track type."""
    rng = np.random.default_rng(seed)
    ts = TimeSeries(window_s=window_s)
    times = rng.uniform(0.0, 6.0, size=200)
    ts.count_many("arrivals", times)
    lat = rng.exponential(0.004, size=200)
    ts.observe_each("latency_s", times, lat)
    for t in times[::10]:
        ts.sample("queue_depth", t, float(rng.integers(0, 50)))
        ts.mark_state("replica.health", t, "healthy")
    ts.count_interval("busy_s", 1.2, 3.7)
    ts.mark_state_interval("replica.health", 4.0, 5.2, "degraded")
    ts.count("faults.slowdown", 2.6)
    return ts


class TestWindowing:
    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(window_s=0.0)
        with pytest.raises(ValueError):
            TimeSeries(window_s=float("nan"))
        with pytest.raises(ValueError):
            TimeSeries(window_s=1.0, max_windows=0)

    def test_window_index_floor_and_clamp(self):
        ts = TimeSeries(window_s=0.25, origin_s=1.0)
        assert ts.window_index(1.0) == 0
        assert ts.window_index(1.249) == 0
        assert ts.window_index(1.25) == 1
        assert ts.window_index(0.0) == 0  # clamped below origin
        assert ts.window_bounds(2) == (1.5, 1.75)

    def test_count_many_matches_looped_count(self):
        rng = np.random.default_rng(3)
        times = rng.uniform(0.0, 10.0, size=500)
        a = TimeSeries(window_s=0.3)
        a.count_many("n", times)
        b = TimeSeries(window_s=0.3)
        for t in times:
            b.count("n", t)
        assert a.to_state() == b.to_state()

    def test_count_interval_integrates_to_duration(self):
        # A busy period spanning several windows must contribute its
        # exact per-window overlap: the track integrates to the true
        # busy seconds and each cell stays <= window_s (rho <= 1).
        ts = TimeSeries(window_s=0.5)
        ts.count_interval("busy_s", 0.7, 2.9)
        total = sum(
            ts.counter_value("busy_s", i) for i in ts.window_indices()
        )
        assert total == pytest.approx(2.2)
        assert ts.counter_value("busy_s", 1) == pytest.approx(0.3)
        assert ts.counter_value("busy_s", 2) == pytest.approx(0.5)
        assert ts.counter_value("busy_s", 5) == pytest.approx(0.4)
        assert ts.summary().utilization(2) == pytest.approx(1.0)

    def test_count_interval_empty_is_noop(self):
        ts = TimeSeries(window_s=0.5)
        ts.count_interval("busy_s", 1.0, 1.0)
        assert ts.window_indices() == []

    def test_track_kind_conflict_rejected(self):
        ts = TimeSeries(window_s=1.0)
        ts.count("x", 0.1)
        with pytest.raises(ValueError, match="counter track"):
            ts.sample("x", 0.2, 1.0)

    def test_ring_eviction_keeps_trailing_windows(self):
        ts = TimeSeries(window_s=1.0, max_windows=4)
        for t in range(10):
            ts.count("n", t + 0.5)
        assert ts.window_indices() == [6, 7, 8, 9]
        assert ts.evicted_windows == 6
        assert ts.summary().evicted_windows == 6

    def test_late_emissions_are_dropped_and_counted_once(self):
        ts = TimeSeries(window_s=1.0, max_windows=4)
        for t in range(5, 15):
            ts.count("n", t + 0.5)
        kept = ts.to_state()["tracks"]
        assert ts.window_indices() == [11, 12, 13, 14]
        assert ts.evicted_windows == 11 - 5
        # Below the ring: dropped, the kept windows untouched, and the
        # count becomes the first kept window minus the lowest seen.
        for _ in range(3):
            ts.count("n", 2.5)
            ts.sample("n.gauge", 7.5, 1.0)
        assert ts.to_state()["tracks"]["n"] == kept["n"]
        assert ts.to_state()["tracks"]["n.gauge"]["windows"] == []
        assert ts.window_indices() == [11, 12, 13, 14]
        assert ts.evicted_windows == 11 - 2

    def test_eviction_is_independent_of_emission_order(self):
        rng = np.random.default_rng(12)
        times = rng.uniform(0.0, 40.0, size=400)
        amounts = rng.integers(1, 5, size=400)
        ordered = TimeSeries(window_s=0.5, max_windows=16)
        shuffled = TimeSeries(window_s=0.5, max_windows=16)
        for k in np.argsort(times):
            ordered.count("n", times[k], amounts[k])
            ordered.mark_state("s", times[k], "up")
        for k in rng.permutation(times.size):
            shuffled.count("n", times[k], amounts[k])
            shuffled.mark_state("s", times[k], "up")
        assert shuffled.to_state() == ordered.to_state()
        last = ordered.window_index(times.max())
        lowest = ordered.window_index(times.min())
        assert ordered.window_indices() == list(range(last - 15, last + 1))
        assert ordered.evicted_windows == (last - 15) - lowest


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteTimes:
    """Every recording method rejects a NaN or infinite time and names
    the argument; nothing is recorded."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("record,arg", [
        (lambda ts, t: ts.count("x", t), "t"),
        (lambda ts, t: ts.sample("x", t, 1.0), "t"),
        (lambda ts, t: ts.observe("x", t, 1.0), "t"),
        (lambda ts, t: ts.mark_state("x", t, "up"), "t"),
        (lambda ts, t: ts.count_interval("x", t, 1.0), "start"),
        (lambda ts, t: ts.count_interval("x", 0.0, t), "end"),
        (lambda ts, t: ts.mark_state_interval("x", t, 1.0, "up"), "start"),
        (lambda ts, t: ts.mark_state_interval("x", 0.0, t, "up"), "end"),
        (lambda ts, t: ts.count_many("x", [0.5, t]), "times"),
        (lambda ts, t: ts.count_each("x", [0.5, t]), "times"),
        (lambda ts, t: ts.sample_each("x", [0.5, t], [1.0, 2.0]), "times"),
        (lambda ts, t: ts.observe_each("x", [t, 0.5], [1.0, 2.0]), "times"),
        (lambda ts, t: ts.observe_each("x", [0.5, t], [1.0, 2.0]), "times"),
        (lambda ts, t: ts.mark_state_each("x", [0.5, t], ["a", "b"]), "times"),
        (lambda ts, t: ts.count_interval_each("x", [0.5, t], [1.0, 2.0]),
         "starts"),
        (lambda ts, t: ts.count_interval_each("x", [0.0, 0.5], [1.0, t]),
         "ends"),
    ])
    def test_rejected_with_argument_named(self, record, arg, bad):
        ts = TimeSeries(window_s=1.0)
        with pytest.raises(ValueError, match=rf"^{arg} must"):
            record(ts, bad)
        assert ts.window_indices() == []
        assert all(
            not ts.to_state()["tracks"][name]["windows"]
            for name in ts.track_names()
        )


def _series_bytes(ts: TimeSeries) -> str:
    """Full state plus each state cell's key order, as comparable text."""
    orders = {
        name: [[i, list(ts._tracks[name].windows[i])]
               for i in sorted(ts._tracks[name].windows)]
        for name in ts.track_names("state")
    }
    return json.dumps([ts.to_state(), orders])


#: Times that land mid-window, on window edges, far enough apart that
#: a small ring evicts, and crowded into a few windows; values that are
#: not whole numbers.
_TIMES = st.one_of(
    st.floats(0.0, 12.0, allow_nan=False),
    st.integers(0, 48).map(lambda k: k * 0.25),
    st.floats(0.0, 0.7, allow_nan=False),
)
_VALUES = st.one_of(
    st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
    st.integers(0, 10**6).map(lambda k: k / 997.0),
)
_SERIES = st.fixed_dictionaries({
    "window_s": st.sampled_from([0.25, 0.3, 1.0 / 3.0, 1.0]),
    "max_windows": st.sampled_from([2, 5, 4096]),
})


def _pair(config, prior):
    """Two equal series, each holding the same earlier emissions."""
    pair = []
    for _ in range(2):
        ts = TimeSeries(**config)
        for t, v in prior:
            ts.count("c", t, v)
            ts.sample("g", t, v)
            ts.observe("h", t, v, exact_cap=6)
            ts.count_interval("i", t, t + v / 500.0)
            ts.mark_state("s", t, "healthy" if v < 500.0 else "crashed")
        pair.append(ts)
    return pair


_PRIOR = st.lists(st.tuples(_TIMES, _VALUES), max_size=6)
_EVENTS = st.lists(st.tuples(_TIMES, _VALUES), max_size=40)


class TestArrayMethods:
    """Each array method leaves the state its scalar calls would, bit
    for bit: sums in emission order, first-occurrence state order, the
    histogram exact cap, and eviction under a small ring."""

    @given(_SERIES, _PRIOR, _EVENTS)
    def test_count_each(self, config, prior, events):
        loop, array = _pair(config, prior)
        for t, v in events:
            loop.count("c", t, v)
        array.count_each("c", [t for t, _ in events], [v for _, v in events])
        assert _series_bytes(array) == _series_bytes(loop)

    @given(_SERIES, _PRIOR, st.lists(_TIMES, max_size=40))
    def test_count_each_default_amount(self, config, prior, times):
        loop, array = _pair(config, prior)
        for t in times:
            loop.count("n", t)
        array.count_each("n", times)
        assert _series_bytes(array) == _series_bytes(loop)

    @given(_SERIES, _PRIOR, _EVENTS)
    def test_sample_each(self, config, prior, events):
        loop, array = _pair(config, prior)
        for t, v in events:
            loop.sample("g", t, v)
        array.sample_each("g", [t for t, _ in events], [v for _, v in events])
        assert _series_bytes(array) == _series_bytes(loop)

    @given(_SERIES, _PRIOR, _EVENTS)
    def test_observe_each(self, config, prior, events):
        loop, array = _pair(config, prior)
        for t, v in events:
            loop.observe("h", t, v, exact_cap=6)
            loop.observe("fresh", t, v)
        times, values = [t for t, _ in events], [v for _, v in events]
        array.observe_each("h", times, values, exact_cap=6)
        array.observe_each("fresh", times, values)
        assert _series_bytes(array) == _series_bytes(loop)

    @given(
        _SERIES, _PRIOR,
        st.lists(st.tuples(_TIMES, st.floats(-0.5, 3.0)), max_size=30),
    )
    def test_count_interval_each(self, config, prior, spans):
        # Lengths up to three windows straddle edges; negative and zero
        # lengths record nothing.
        loop, array = _pair(config, prior)
        starts = [t for t, _ in spans]
        ends = [t + d * config["window_s"] for t, d in spans]
        for start, end in zip(starts, ends):
            loop.count_interval("i", start, end)
            loop.count_interval("fresh", start, end)
        array.count_interval_each("i", starts, ends)
        array.count_interval_each("fresh", starts, ends)
        assert _series_bytes(array) == _series_bytes(loop)

    @given(
        _SERIES, _PRIOR,
        st.lists(st.tuples(_TIMES, st.sampled_from(
            ["healthy", "degraded", "crashed", "breaker_open"]
        )), max_size=40),
    )
    def test_mark_state_each(self, config, prior, marks):
        loop, array = _pair(config, prior)
        for t, state in marks:
            loop.mark_state("s", t, state)
        array.mark_state_each("s", [t for t, _ in marks], [s for _, s in marks])
        assert _series_bytes(array) == _series_bytes(loop)

    @pytest.mark.parametrize("per_window", [1000, 3])
    def test_sums_run_in_emission_order(self, per_window):
        # Few crowded windows and many sparse ones take the two ways
        # through the ordered sum; the data is chosen so a pairwise or
        # regrouped sum would differ from the running sum.
        values = np.random.default_rng(0).exponential(0.001, size=3000)
        times = np.repeat(np.arange(3000 // per_window), per_window) + 0.5
        loop, array = TimeSeries(window_s=1.0), TimeSeries(window_s=1.0)
        for ts in (loop, array):
            ts.count_many("c", times[::per_window])
            ts.observe("h", 0.5, 0.25, exact_cap=0)
        for t, v in zip(times.tolist(), values.tolist()):
            loop.count("c", t, v)
            loop.observe("h", t, v, exact_cap=0)
        array.count_each("c", times, values)
        array.observe_each("h", times, values, exact_cap=0)
        assert _series_bytes(array) == _series_bytes(loop)
        regrouped = [
            1.0 + values[k:k + per_window].sum()
            for k in range(0, 3000, per_window)
        ]
        cells = [loop.counter_value("c", i) for i in loop.window_indices()]
        assert cells != regrouped

    def test_gauge_cells_keep_signed_zeros_and_nan_order(self):
        nan = float("nan")
        # Window 2 holds 4.0 already; folding NaN, 3.0 into it gives 3.0,
        # the chunk's own min (NaN) against 4.0 would give 4.0.
        times = [0.1, 0.2, 1.1, 1.2, 2.1, 2.2]
        values = [-0.0, 0.0, 0.0, -0.0, nan, 3.0]
        loop, array = TimeSeries(window_s=1.0), TimeSeries(window_s=1.0)
        for ts in (loop, array):
            ts.sample("g", 2.0, 4.0)
        for t, v in zip(times, values):
            loop.sample("g", t, v)
        array.sample_each("g", times, values)
        assert _series_bytes(array) == _series_bytes(loop)

    def test_misaligned_columns_rejected(self):
        ts = TimeSeries(window_s=1.0)
        with pytest.raises(ValueError, match="times and values must align"):
            ts.count_each("c", [0.1, 0.2], [1.0])
        with pytest.raises(ValueError, match="times and values must align"):
            ts.sample_each("g", [0.1], [1.0, 2.0])
        with pytest.raises(ValueError, match="starts and ends must align"):
            ts.count_interval_each("i", [0.1], [0.2, 0.3])
        with pytest.raises(ValueError, match="times and states must align"):
            ts.mark_state_each("s", [0.1], [])

    def test_negative_observation_rejected_before_recording(self):
        ts = TimeSeries(window_s=1.0)
        with pytest.raises(ValueError, match=">= 0"):
            ts.observe_each("h", [0.1, 0.2], [1.0, -1.0])
        assert ts.window_indices() == []


class TestStateTracks:
    def test_health_timeline_accumulates(self):
        ts = _filled_series()
        s = ts.summary()
        degraded = [
            i for i in s.window_indices()
            if "degraded" in s.states("replica.health", i)
        ]
        # mark_state_interval(4.0, 5.2) at 0.5 s windows -> windows 8-10.
        assert degraded == [8, 9, 10]

    def test_fault_tracks_by_prefix(self):
        s = _filled_series().summary()
        assert s.fault_tracks() == ["faults.slowdown"]
        assert s.fault_activity(5) == 1.0  # the count at 2.6 s / 0.5 s windows
        assert s.fault_activity(0) == 0.0


class TestSerialization:
    def test_state_roundtrip_is_lossless(self):
        ts = _filled_series()
        state = json.loads(json.dumps(ts.to_state()))
        back = TimeSeries.from_state(state)
        assert back.to_state() == ts.to_state()
        assert back.summary().rows == ts.summary().rows

    def test_state_version_checked(self):
        state = _filled_series().to_state()
        state["version"] = 99
        with pytest.raises(ValueError, match="version"):
            TimeSeries.from_state(state)
        with pytest.raises(ValueError, match="version"):
            TimeSeriesSummary.from_compact_state({"version": 99})

    def test_compact_state_roundtrips_to_summary(self):
        ts = _filled_series()
        compact = json.loads(json.dumps(ts.compact_state()))
        summary = TimeSeriesSummary.from_compact_state(compact)
        live = ts.summary()
        assert summary.window_indices() == live.window_indices()
        for i in live.window_indices():
            assert summary.counter("arrivals", i) == live.counter("arrivals", i)
            assert summary.gauge("queue_depth", i) == live.gauge("queue_depth", i)
            assert summary.states("replica.health", i) == live.states(
                "replica.health", i
            )
            lat_live = live.histogram_summary("latency_s", i)
            lat_back = summary.histogram_summary("latency_s", i)
            if lat_live is None:
                assert lat_back is None
            else:
                for key in ("count", "sum", "p50", "p95", "p99"):
                    assert lat_back[key] == pytest.approx(lat_live[key])

    def test_compact_state_is_byte_stable(self):
        a = json.dumps(_filled_series().compact_state(), sort_keys=True)
        b = json.dumps(_filled_series().compact_state(), sort_keys=True)
        assert a == b


class TestHistogramTrackMemory:
    """An exact-regime window keeps its values and nothing else."""

    @staticmethod
    def _bytes_per_observation(observations, windows):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0.0, windows * 0.1, size=observations))
        latencies = rng.lognormal(-7.0, 0.5, size=observations)
        gc.collect()
        tracemalloc.start()
        try:
            ts = TimeSeries(window_s=0.1)
            ts.observe_each("latency_s", times, latencies)
            assert len(ts.window_indices()) == windows
            assert all(
                ts.window_histogram("latency_s", i).is_exact
                for i in ts.window_indices()
            )
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del ts
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return freed / observations

    def test_exact_windows_hold_about_one_float64_per_value(self):
        per_value = self._bytes_per_observation(10_000, 24)
        # 8 B per value plus the arrays' growth slack and the per-window
        # histogram objects.
        assert per_value <= 12.0, per_value


class TestMerge:
    def test_mismatched_windowing_rejected(self):
        with pytest.raises(ValueError, match="windowing"):
            TimeSeries(window_s=1.0).merge(TimeSeries(window_s=0.5))
        with pytest.raises(ValueError, match="windowing"):
            TimeSeries(window_s=1.0).merge(
                TimeSeries(window_s=1.0, origin_s=5.0)
            )

    def test_merge_empty_series_is_exact_noop(self):
        # The empty-shard merge must not touch any state — in
        # particular it must not tip exact-regime histograms into
        # bucket interpolation.
        ts = _filled_series()
        before = ts.to_state()
        ts.merge(TimeSeries(window_s=ts.window_s))
        assert ts.to_state() == before
        for i in ts.window_indices():
            hist = ts.window_histogram("latency_s", i)
            if hist is not None:
                assert hist.is_exact

    def test_merge_into_empty_adopts_full_state(self):
        ts = _filled_series()
        empty = TimeSeries(window_s=ts.window_s)
        empty.merge(ts)
        assert empty.to_state() == ts.to_state()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_window_split_shards_merge_to_single_series(self, seed):
        # Property: split a run's events by window across two shards
        # (each window's events land wholly on one shard — the per-
        # replica sharding the engine produces), merge, and the result
        # is state-identical to recording everything into one series.
        rng = np.random.default_rng(seed)
        window_s = 0.4
        times = rng.uniform(0.0, 8.0, size=400)
        values = rng.exponential(0.005, size=400)
        whole = TimeSeries(window_s=window_s)
        shards = [TimeSeries(window_s=window_s) for _ in range(2)]
        owner = {}
        for t, v in zip(times, values):
            index = whole.window_index(t)
            shard = shards[owner.setdefault(index, int(rng.integers(0, 2)))]
            for dest in (whole, shard):
                dest.count("arrivals", t)
                dest.observe("latency_s", t, v)
                dest.sample("queue_depth", t, v * 1e3)
                dest.mark_state("health", t, "healthy")
        merged = shards[0].merge(shards[1])
        assert merged.to_state() == whole.to_state()
        # Exactness preserved: no shard window crossed the exact cap.
        for i in whole.window_indices():
            a = merged.window_histogram("latency_s", i)
            b = whole.window_histogram("latency_s", i)
            if b is not None:
                assert a.is_exact == b.is_exact

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_value_split_counters_and_gauges_merge_exactly(self, seed):
        # Counters and gauges are plain additive cells, so even a
        # value-level split (both shards contribute to the same
        # window) must merge to the single-series state.
        rng = np.random.default_rng(seed)
        times = rng.uniform(0.0, 5.0, size=300)
        whole = TimeSeries(window_s=0.25)
        shards = [TimeSeries(window_s=0.25) for _ in range(3)]
        for k, t in enumerate(times):
            shard = shards[int(rng.integers(0, 3))]
            for dest in (whole, shard):
                dest.count("n", t)
                dest.count_interval("busy_s", t, t + 0.01)
                dest.sample("depth", t, float(k % 17))
                dest.mark_state("health", t, "a" if k % 3 else "b")
        merged = shards[0].merge(shards[1]).merge(shards[2])
        sm, sw = merged.summary(), whole.summary()
        assert sm.window_indices() == sw.window_indices()
        for i in sw.window_indices():
            assert sm.counter("n", i) == sw.counter("n", i)
            assert sm.counter("busy_s", i) == pytest.approx(
                sw.counter("busy_s", i)
            )
            assert sm.states("health", i) == sw.states("health", i)
            gm, gw = sm.gauge("depth", i), sw.gauge("depth", i)
            if gw is None:
                assert gm is None
            else:
                assert gm["count"] == gw["count"]
                assert gm["mean"] == pytest.approx(gw["mean"])
                assert gm["min"] == gw["min"]
                assert gm["max"] == gw["max"]


class TestCounterExport:
    def test_counter_events_shapes(self):
        ts = _filled_series()
        events = timeseries_to_counter_events(ts)
        assert events, "expected counter events"
        for e in events:
            assert e["ph"] == "C"
            assert e["pid"] == COUNTER_PID
            assert set(e) >= {"name", "ts", "args"}
        names = {e["name"] for e in events}
        assert {"arrivals", "busy_s", "faults.slowdown"} <= names
        # Histogram tracks export multi-series percentile args.
        lat = [e for e in events if e["name"] == "latency_s"]
        assert lat and set(lat[0]["args"]) == {"p50", "p95", "p99"}
        # State tracks have no numeric counter representation.
        assert "replica.health" not in names

    def test_track_filter(self):
        ts = _filled_series()
        events = timeseries_to_counter_events(ts, tracks=["arrivals"])
        assert {e["name"] for e in events} == {"arrivals"}

    def test_summary_and_live_exports_match(self):
        ts = _filled_series()
        assert timeseries_to_counter_events(ts) == timeseries_to_counter_events(
            ts.summary()
        )
