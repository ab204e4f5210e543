"""``StreamingHistogram`` against a list-and-``sorted`` reference.

The reference keeps every value in a Python list and every bucket
count from the first observation, and sorts the list once per
quantile: the storage the array histogram replaced. Every read must be
bit-equal to it (compared by ``repr``, so the sign of a zero counts),
and so must ``to_state()``, in both regimes and over
duplicates, signed zeros, single values and values on bucket edges.
"""

import itertools
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import StreamingHistogram


class ListHistogram:
    """Reference: raw values in a list, counts kept from the start."""

    def __init__(self, min_value=1e-9, max_value=1e4, growth=1.05, exact_cap=4096):
        self.min_value = min_value
        self.max_value = max_value
        self.growth = growth
        self.exact_cap = exact_cap
        self._log_growth = math.log(growth)
        self._num_buckets = (
            int(math.ceil(math.log(max_value / min_value) / self._log_growth)) + 2
        )
        self._counts = [0] * self._num_buckets
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._exact = [] if exact_cap > 0 else None

    def _bucket_index(self, value):
        if value < self.min_value:
            return 0
        if value >= self.max_value:
            return self._num_buckets - 1
        return 1 + int(math.log(value / self.min_value) / self._log_growth)

    def _bucket_bounds(self, index):
        if index <= 0:
            return (0.0, self.min_value)
        if index >= self._num_buckets - 1:
            return (self.max_value, self.max_value)
        lo = self.min_value * self.growth ** (index - 1)
        return (lo, lo * self.growth)

    def observe(self, value):
        value = float(value)
        self._counts[self._bucket_index(value)] += 1
        self._count += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self._exact is not None:
            self._exact.append(value)
            if len(self._exact) > self.exact_cap:
                self._exact = None

    def quantile(self, p):
        if self._exact is not None:
            ordered = sorted(self._exact)
            if len(ordered) == 1:
                return ordered[0]
            rank = (p / 100.0) * (len(ordered) - 1)
            lo = int(math.floor(rank))
            hi = min(lo + 1, len(ordered) - 1)
            frac = rank - lo
            return ordered[lo] * (1.0 - frac) + ordered[hi] * frac
        target = (p / 100.0) * (self._count - 1) + 1.0
        cumulative = 0
        for index, count in enumerate(self._counts):
            if count == 0:
                continue
            if cumulative + count >= target:
                lo, hi = self._bucket_bounds(index)
                within = (target - cumulative - 1.0) / count if count > 1 else 0.5
                value = lo + (hi - lo) * within
                return min(max(value, self._min), self._max)
            cumulative += count
        return self._max

    def fraction_above(self, threshold):
        threshold = float(threshold)
        if self._exact is not None:
            return sum(1 for v in self._exact if v > threshold) / self._count
        if threshold < self._min:
            return 1.0
        if threshold >= self._max:
            return 0.0
        cut = self._bucket_index(threshold)
        above = sum(self._counts[cut + 1:])
        in_bucket = self._counts[cut]
        if in_bucket:
            lo, hi = self._bucket_bounds(cut)
            lo = max(lo, self._min)
            hi = min(hi, self._max) if hi > lo else hi
            if hi > lo:
                above += in_bucket * max(0.0, min(1.0, (hi - threshold) / (hi - lo)))
        return min(above / self._count, 1.0)

    def to_state(self):
        return {
            "version": StreamingHistogram.STATE_VERSION,
            "min_value": self.min_value,
            "max_value": self.max_value,
            "growth": self.growth,
            "exact_cap": self.exact_cap,
            "counts": [[i, c] for i, c in enumerate(self._counts) if c],
            "count": self._count,
            "total": self._total,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "exact": list(self._exact) if self._exact is not None else None,
        }


LAYOUTS = (
    {},
    {"min_value": 1e-6, "max_value": 1.0, "growth": 1.1},
)
CAPS = (0, 1, 2, 5, 16, 4096)
PERCENTILES = st.lists(
    st.floats(min_value=0.0, max_value=100.0), max_size=6
).map(lambda ps: [0.0, 50.0, 99.0, 100.0] + ps)


@st.composite
def _values(draw, layout):
    """Values that tie, carry a sign on zero, sit on or a hair beside a
    bucket edge, or fall outside the bucket range."""
    min_value = layout.get("min_value", 1e-9)
    growth = layout.get("growth", 1.05)
    max_value = layout.get("max_value", 1e4)
    edge = st.integers(0, 400).map(lambda k: min_value * growth**k)
    near_edge = st.tuples(edge, st.sampled_from([0.0, 2.0])).map(
        lambda e: math.nextafter(*e)
    )
    element = st.one_of(
        st.sampled_from([0.0, -0.0, min_value, max_value, 2 * max_value]),
        edge,
        near_edge,
        st.floats(min_value=0.0, max_value=2 * max_value),
    )
    pool = draw(st.lists(element, min_size=1, max_size=12))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))


@st.composite
def _pair(draw):
    """The same stream fed to both: per value, or in array chunks."""
    layout = draw(st.sampled_from(LAYOUTS))
    cap = draw(st.sampled_from(CAPS))
    values = draw(_values(layout))
    hist = StreamingHistogram(exact_cap=cap, **layout)
    ref = ListHistogram(exact_cap=cap, **layout)
    for v in values:
        ref.observe(v)
    if draw(st.booleans()):
        for v in values:
            hist.observe(v)
    else:
        cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=3)))
        for lo, hi in zip([0] + cuts, cuts + [len(values)]):
            hist.observe_each(values[lo:hi])
    return layout, hist, ref, values


def _assert_reads_equal(hist, ref, percentiles, thresholds):
    assert hist.is_exact == (ref._exact is not None)
    for p in percentiles:
        assert repr(hist.quantile(p)) == repr(ref.quantile(p)), p
    snap = hist.snapshot(percentiles)
    for p in percentiles:
        assert repr(snap.quantiles[p]) == repr(ref.quantile(p)), p
    for t in thresholds:
        assert repr(hist.fraction_above(t)) == repr(ref.fraction_above(t)), t
    assert json.dumps(hist.to_state()) == json.dumps(ref.to_state())
    restored = StreamingHistogram.from_state(json.loads(json.dumps(hist.to_state())))
    assert json.dumps(restored.to_state()) == json.dumps(ref.to_state())


class TestAgainstListReference:
    def test_signed_zero_ties_keep_stream_order(self):
        """Every stream of up to six values over {0.0, -0.0, 1.0}, read
        at every rank: a sort that reorders equal zeros shows up as a
        wrong sign."""
        for n in range(1, 7):
            ranks = [100.0 * k / max(n - 1, 1) for k in range(n)]
            for values in itertools.product((0.0, -0.0, 1.0), repeat=n):
                hist, ref = StreamingHistogram(), ListHistogram()
                for v in values:
                    hist.observe(v)
                    ref.observe(v)
                for p in ranks:
                    assert repr(hist.quantile(p)) == repr(ref.quantile(p)), values

    def test_derived_counts_follow_math_log_at_bucket_edges(self):
        """Counts derived from the exact values, in ``to_state()`` and
        when the cap is passed, equal the per-value ``math.log`` ones."""
        for layout, buckets in zip(LAYOUTS, (600, 150)):
            min_value = layout.get("min_value", 1e-9)
            growth = layout.get("growth", 1.05)
            edges = [min_value * growth**k for k in range(buckets)]
            values = edges + [math.nextafter(e, 0.0) for e in edges]
            values += [math.nextafter(e, 2.0) for e in edges]
            for cap in (len(values), len(values) - 1):
                hist = StreamingHistogram(exact_cap=cap, **layout)
                ref = ListHistogram(exact_cap=cap, **layout)
                for v in values:
                    hist.observe(v)
                    ref.observe(v)
                assert json.dumps(hist.to_state()) == json.dumps(ref.to_state())

    @settings(max_examples=200)
    @given(_pair(), PERCENTILES, st.lists(st.floats(0.0, 2e4), max_size=4))
    def test_one_stream(self, pair, percentiles, thresholds):
        _, hist, ref, values = pair
        _assert_reads_equal(hist, ref, percentiles, values + thresholds + [-0.0])
