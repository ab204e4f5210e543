"""Streaming histograms for latency-style metrics.

A :class:`StreamingHistogram` accumulates observations into fixed
geometric (log-spaced) buckets so memory stays bounded no matter how
long the stream runs — the property the scheduler needs to report
p50/p95/p99 without keeping per-query latency lists alive.

Two quantile regimes:

* while the observation count is at or below ``exact_cap`` the raw
  values are the only state, one float64 each in an ``array('d')``,
  and :meth:`quantile` is *exact* (matches ``numpy.percentile`` with
  linear interpolation); bucket counts are derived from the values
  when a state is written or the cap is passed;
* past the cap only the bucket counts are kept and quantiles are
  interpolated within log buckets, with relative error bounded by the
  bucket ``growth`` factor (5 % by default).

Histograms serialize losslessly (:meth:`StreamingHistogram.to_state` /
:meth:`StreamingHistogram.from_state`): the state carries the bucket
configuration, sparse bucket counts, and — while still in the exact
regime — the retained raw values, so a deserialized histogram answers
every quantile query identically to the original.
"""

from __future__ import annotations

import math
import numbers
import threading
from array import array
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["HistogramSnapshot", "StreamingHistogram"]


class HistogramSnapshot:
    """Immutable point-in-time view of a histogram's statistics."""

    __slots__ = ("count", "total", "min", "max", "quantiles")

    def __init__(
        self,
        count: int,
        total: float,
        min_value: float,
        max_value: float,
        quantiles: Dict[float, float],
    ) -> None:
        self.count = count
        self.total = total
        self.min = min_value
        self.max = max_value
        self.quantiles = quantiles

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }
        for q, value in sorted(self.quantiles.items()):
            out[f"p{q:g}"] = value
        return out


class StreamingHistogram:
    """Fixed log-bucket histogram with exact quantiles on demand.

    Buckets span ``[min_value, max_value)`` geometrically with ratio
    ``growth``; observations outside the range land in underflow /
    overflow buckets (their exact min/max are still tracked, so
    extreme quantiles stay honest).
    """

    DEFAULT_QUANTILES = (50.0, 95.0, 99.0)

    def __init__(
        self,
        min_value: float = 1e-9,
        max_value: float = 1e4,
        growth: float = 1.05,
        exact_cap: int = 4096,
    ) -> None:
        for name, value in (
            ("min_value", min_value), ("max_value", max_value), ("growth", growth)
        ):
            _check_real(name, value)
        if not (0 < min_value < max_value and math.isfinite(max_value / min_value)):
            raise ValueError(
                "need 0 < min_value < max_value with a finite max_value / "
                f"min_value, got min_value={min_value!r}, max_value={max_value!r}"
            )
        if not 1.0 < growth < math.inf:
            raise ValueError(f"growth must be finite and > 1, got {growth!r}")
        if (
            isinstance(exact_cap, bool)
            or not isinstance(exact_cap, numbers.Integral)
            or exact_cap < 0
        ):
            raise ValueError(
                f"exact_cap must be a non-negative integer, got {exact_cap!r}"
            )
        self.min_value = min_value
        self.max_value = max_value
        self.growth = growth
        self.exact_cap = exact_cap
        self._log_growth = math.log(growth)
        self._num_buckets = (
            int(math.ceil(math.log(max_value / min_value) / self._log_growth)) + 2
        )  # +2 for underflow/overflow edge buckets
        self._lock = threading.Lock()
        self._clear()

    def _clear(self) -> None:
        # Exactly one of the two is set: the raw values while exact,
        # the bucket counts after.
        self._exact: Optional[array] = array("d") if self.exact_cap > 0 else None
        self._counts: Optional[List[int]] = (
            None if self._exact is not None else [0] * self._num_buckets
        )
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- recording ----------------------------------------------------------

    def _bucket_index(self, value: float) -> int:
        if value < self.min_value:
            return 0
        if value >= self.max_value:
            return self._num_buckets - 1
        return 1 + int(math.log(value / self.min_value) / self._log_growth)

    def _bucket_bounds(self, index: int) -> "tuple[float, float]":
        if index <= 0:
            return (0.0, self.min_value)
        if index >= self._num_buckets - 1:
            return (self.max_value, self.max_value)
        lo = self.min_value * self.growth ** (index - 1)
        return (lo, lo * self.growth)

    def observe(self, value: float) -> None:
        """Record one observation (non-negative; latencies, sizes...)."""
        value = float(value)
        if value < 0 or math.isnan(value):
            raise ValueError(f"histogram observations must be >= 0, got {value}")
        with self._lock:
            self._count += 1
            self._total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if self._exact is None:
                self._counts[self._bucket_index(value)] += 1
            else:
                self._exact.append(value)
                if len(self._exact) > self.exact_cap:
                    self._drop_exact()

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch of observations in one vectorized pass.

        Counts, min, max and the retained exact values match calling
        :meth:`observe` per value, but ``total`` adds the batch with
        ``ndarray.sum`` (pairwise), so it may differ from the per-value
        running sum in the last bit. :meth:`observe_each` is the
        bit-exact form.
        """
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if arr.size == 0:
            return
        if np.isnan(arr).any() or (arr < 0).any():
            raise ValueError("histogram observations must be >= 0 and not NaN")
        with self._lock:
            self._count += arr.size
            self._total += float(arr.sum())
            self._min = min(self._min, float(arr.min()))
            self._max = max(self._max, float(arr.max()))
            self._record(arr)

    def observe_each(self, values: Sequence[float]) -> None:
        """Record observations exactly as one :meth:`observe` per value,
        in order, would: the same state, bit for bit.

        ``total`` is a running sum (``np.cumsum`` adds left to right)
        and bucket indices agree with :meth:`_bucket_index`'s
        ``math.log``.
        """
        arr = np.asarray(values, dtype=float).reshape(-1)
        if arr.size == 0:
            return
        if np.isnan(arr).any() or (arr < 0).any():
            raise ValueError("histogram observations must be >= 0 and not NaN")
        lo, hi = float(arr.min()), float(arr.max())
        # Of equal values observe keeps the first; only 0.0 and -0.0
        # are equal yet print differently.
        if lo == 0.0:
            lo = min(arr.tolist())
        if hi == 0.0:
            hi = max(arr.tolist())
        with self._lock:
            self._count += arr.size
            self._total = float(
                np.cumsum(np.concatenate(([self._total], arr)))[-1]
            )
            if lo < self._min:
                self._min = lo
            if hi > self._max:
                self._max = hi
            self._record(arr)

    def _record(self, arr: np.ndarray) -> None:
        """Add ``arr`` to the exact values or the bucket counts (lock held)."""
        if self._exact is not None:
            self._exact.frombytes(arr.tobytes())
            if len(self._exact) > self.exact_cap:
                self._drop_exact()
            return
        bucket_counts = np.bincount(self._bucket_indices(arr))
        buckets = np.flatnonzero(bucket_counts)
        counts = self._counts
        for i, c in zip(buckets.tolist(), bucket_counts[buckets].tolist()):
            counts[i] += c

    def _exact_counts(self) -> List[int]:
        """Bucket counts of the exact values, as :meth:`observe` would
        have counted them one by one."""
        return np.bincount(
            self._bucket_indices(np.frombuffer(self._exact)),
            minlength=self._num_buckets,
        ).tolist()

    def _drop_exact(self) -> None:
        """Past the cap: keep the values' bucket counts, drop the values."""
        self._counts = self._exact_counts()
        self._exact = None

    def _bucket_indices(self, arr: np.ndarray) -> np.ndarray:
        """:meth:`_bucket_index` of every value in ``arr``."""
        indices = np.zeros(arr.shape, dtype=np.intp)
        in_range = (arr >= self.min_value) & (arr < self.max_value)
        inside = arr[in_range]
        scaled = np.log(inside / self.min_value) / self._log_growth
        bucket = scaled.astype(np.intp)
        # np.log may differ from math.log in the last bit; redo the
        # values that sit within a hair of a bucket edge as math.log.
        for k in np.flatnonzero(np.abs(scaled - np.rint(scaled)) < 1e-6).tolist():
            bucket[k] = int(
                math.log(float(inside[k]) / self.min_value) / self._log_growth
            )
        indices[in_range] = 1 + bucket
        indices[arr >= self.max_value] = self._num_buckets - 1
        return indices

    # -- reading ------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    @property
    def is_exact(self) -> bool:
        """Whether quantiles are still computed from retained raw values."""
        return self._exact is not None

    def quantile(self, p: float) -> float:
        """Value at percentile ``p`` (0-100).

        Exact while under ``exact_cap`` observations; bucket-interpolated
        (relative error <= ``growth`` - 1) afterwards.
        """
        return self._quantiles((p,))[0]

    def _quantiles(self, ps: Sequence[float]) -> List[float]:
        """:meth:`quantile` of every ``p`` in ``ps``, sorting at most once."""
        for p in ps:
            _check_real("percentile p", p)
            if not 0.0 <= p <= 100.0:
                raise ValueError(f"percentile p must be in [0, 100], got {p!r}")
        with self._lock:
            if self._count == 0:
                raise ValueError("cannot take a quantile of an empty histogram")
            if self._exact is None:
                return [self._bucket_quantile(p) for p in ps]
            ordered = np.sort(np.frombuffer(self._exact), kind="stable")
        return [_exact_percentile(ordered, p) for p in ps]

    def _bucket_quantile(self, p: float) -> float:
        rank = (p / 100.0) * (self._count - 1)
        target = rank + 1.0  # 1-based cumulative position, fractional
        cumulative = 0
        for index, count in enumerate(self._counts):
            if count == 0:
                continue
            if cumulative + count >= target:
                lo, hi = self._bucket_bounds(index)
                # Linear interpolation by position within the bucket.
                within = (target - cumulative - 1.0) / count if count > 1 else 0.5
                value = lo + (hi - lo) * within
                return min(max(value, self._min), self._max)
            cumulative += count
        return self._max

    def fraction_above(self, threshold: float) -> float:
        """Fraction of observations strictly above ``threshold``.

        The burn-rate monitor's per-window error rate for latency SLOs:
        exact while raw values are retained, otherwise interpolated
        within the bucket containing the threshold (error bounded by
        the bucket ``growth`` factor).
        """
        threshold = float(threshold)
        if math.isnan(threshold):
            raise ValueError("fraction_above threshold must not be NaN")
        with self._lock:
            if self._count == 0:
                return 0.0
            if self._exact is not None:
                above = np.count_nonzero(np.frombuffer(self._exact) > threshold)
                return int(above) / self._count
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
                    above += in_bucket * max(
                        0.0, min(1.0, (hi - threshold) / (hi - lo))
                    )
            return min(above / self._count, 1.0)

    def snapshot(
        self, quantiles: Sequence[float] = DEFAULT_QUANTILES
    ) -> HistogramSnapshot:
        values = self._quantiles(quantiles) if self._count else [0.0] * len(quantiles)
        return HistogramSnapshot(
            count=self._count,
            total=self._total,
            min_value=self.min,
            max_value=self.max,
            quantiles=dict(zip(quantiles, values)),
        )

    # -- serialization ------------------------------------------------------

    #: Version tag written into every serialized state dict.
    STATE_VERSION = 1

    def to_state(self) -> Dict[str, object]:
        """Lossless, JSON-safe dump of the full histogram state.

        Bucket counts are stored sparsely as ``[index, count]`` pairs
        (derived from the raw values while the histogram is exact); raw
        values survive while the histogram is still in the exact regime,
        so ``from_state(h.to_state())`` answers every
        :meth:`quantile` query identically to ``h``.
        """
        with self._lock:
            counts = self._counts if self._exact is None else self._exact_counts()
            return {
                "version": self.STATE_VERSION,
                "min_value": self.min_value,
                "max_value": self.max_value,
                "growth": self.growth,
                "exact_cap": self.exact_cap,
                "counts": [[i, c] for i, c in enumerate(counts) if c],
                "count": self._count,
                "total": self._total,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "exact": self._exact.tolist() if self._exact is not None else None,
            }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "StreamingHistogram":
        """Rebuild a histogram from :meth:`to_state` output."""
        version = state.get("version")
        if version != cls.STATE_VERSION:
            raise ValueError(
                f"unsupported histogram state version {version!r}; this "
                f"build reads version {cls.STATE_VERSION}"
            )
        hist = cls(
            min_value=float(state["min_value"]),
            max_value=float(state["max_value"]),
            growth=float(state["growth"]),
            exact_cap=int(state["exact_cap"]),
        )
        counts = [0] * hist._num_buckets
        for index, count in state["counts"]:
            if not 0 <= index < hist._num_buckets:
                raise ValueError(
                    f"bucket index {index} out of range for "
                    f"{hist._num_buckets} buckets"
                )
            counts[index] = int(count)
        hist._count = int(state["count"])
        hist._total = float(state["total"])
        hist._min = math.inf if state["min"] is None else float(state["min"])
        hist._max = -math.inf if state["max"] is None else float(state["max"])
        exact = state["exact"]
        if exact is None:
            hist._exact, hist._counts = None, counts
            return hist
        hist._exact, hist._counts = array("d", map(float, exact)), None
        if hist._exact_counts() != counts:
            raise ValueError(
                "exact-regime histogram state: counts disagree with its "
                "exact values"
            )
        return hist

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self._clear()


def _check_real(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")


def _exact_percentile(ordered: np.ndarray, p: float) -> float:
    """``numpy.percentile(..., method="linear")`` of sorted values,
    interpolated in Python floats."""
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return float(ordered[lo]) * (1.0 - frac) + float(ordered[hi]) * frac
