"""Metrics registry: counters, gauges, and histograms by (name, labels).

The registry is the single place instrumentation writes to and
reports/exporters read from. Metrics are addressed by a name plus an
arbitrary label set (``registry.counter("pmu.cycles", model="rm2",
platform="BDW")``), the Prometheus-style scheme every snapshot keeps.

Semantics:

* **Counter** — monotonically increasing accumulator (``inc``).
* **Gauge** — last-set value, with min/max/mean of every sample kept so
  per-event signals (queue depth) summarize meaningfully.
* **Histogram** — :class:`~repro.telemetry.histogram.StreamingHistogram`.

``snapshot()`` freezes everything into plain dicts; ``reset()`` zeroes
values but keeps registrations.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.telemetry.histogram import StreamingHistogram

__all__ = ["Counter", "Gauge", "MetricsRegistry", "MetricKey"]

#: Hashable metric address: (name, sorted (label, value) pairs).
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Mapping[str, Any]) -> MetricKey:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


class Counter:
    """Monotonically increasing accumulator."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge instead")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0


class Gauge:
    """Last-set value, with min/max/mean over all samples retained."""

    __slots__ = ("name", "labels", "_value", "_min", "_max", "_sum", "_count",
                 "_lock")

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._clear()

    def _clear(self) -> None:
        self._value = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._sum = 0.0
        self._count = 0

    def set(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._value = value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            self._sum += value
            self._count += 1

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta
            self._min = min(self._min, self._value)
            self._max = max(self._max, self._value)
            self._sum += self._value
            self._count += 1

    @property
    def value(self) -> float:
        return self._value

    @property
    def samples(self) -> int:
        return self._count

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def reset(self) -> None:
        with self._lock:
            self._clear()


class MetricsRegistry:
    """Thread-safe get-or-create store of named, labeled metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, StreamingHistogram] = {}
        self._histogram_labels: Dict[MetricKey, Dict[str, str]] = {}

    # -- get-or-create ------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = _key(name, labels)
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter(name, dict(key[1]))
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _key(name, labels)
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge(name, dict(key[1]))
        return metric

    def histogram(
        self,
        name: str,
        min_value: float = 1e-9,
        max_value: float = 1e4,
        growth: float = 1.05,
        exact_cap: int = 4096,
        **labels: Any,
    ) -> StreamingHistogram:
        key = _key(name, labels)
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = StreamingHistogram(
                    min_value=min_value,
                    max_value=max_value,
                    growth=growth,
                    exact_cap=exact_cap,
                )
                self._histogram_labels[key] = dict(key[1])
        return metric

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def names(self) -> List[str]:
        seen = []
        for key in self._iter_keys():
            if key[0] not in seen:
                seen.append(key[0])
        return seen

    def _iter_keys(self) -> Iterator[MetricKey]:
        yield from self._counters
        yield from self._gauges
        yield from self._histograms

    def find(
        self, name: str, **labels: Any
    ) -> Optional[Any]:
        """Look up an already-registered metric without creating it."""
        key = _key(name, labels)
        return (
            self._counters.get(key)
            or self._gauges.get(key)
            or self._histograms.get(key)
        )

    # -- lifecycle -----------------------------------------------------------

    def snapshot(self) -> List[Dict[str, Any]]:
        """Freeze every metric into a plain-dict record list.

        Each record has ``name``, ``type``, ``labels`` and type-specific
        value fields — the exchange format the exporters consume.

        Ordering is deterministic and registration-independent: records
        sort by metric name, then the canonicalized label tuple, then
        type, and label dicts themselves are built in sorted key order —
        so two processes that recorded the same metrics serialize
        byte-identical snapshots regardless of registration order
        (run-ledger records rely on this).
        """
        records: List[Dict[str, Any]] = []
        with self._lock:
            for key, c in self._counters.items():
                records.append(
                    {"name": c.name, "type": "counter", "labels": dict(key[1]),
                     "value": c.value}
                )
            for key, g in self._gauges.items():
                records.append(
                    {"name": g.name, "type": "gauge", "labels": dict(key[1]),
                     "value": g.value, "min": g.min, "max": g.max,
                     "mean": g.mean, "samples": g.samples}
                )
            for key, h in self._histograms.items():
                record: Dict[str, Any] = {
                    "name": key[0], "type": "histogram",
                    "labels": self._histogram_labels[key],
                }
                record.update(h.snapshot().as_dict())
                records.append(record)
        records.sort(
            key=lambda r: (
                r["name"],
                tuple(sorted(r["labels"].items())),
                r["type"],
            )
        )
        return records

    def reset(self) -> None:
        """Zero every metric's value; registrations survive."""
        with self._lock:
            for metric in (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            ):
                metric.reset()

    def clear(self) -> None:
        """Drop every registration."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._histogram_labels.clear()
