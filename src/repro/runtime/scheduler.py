"""At-scale inference scheduling simulation (DeepRecSys-style).

The paper's systems evaluation measures isolated inferences; its
companion system (DeepRecSys, cited as the model source) schedules a
*query stream* across heterogeneous hardware under tail-latency SLAs.
This module closes that loop with a discrete-event simulation:

* queries arrive by a Poisson process,
* a batching queue accumulates queries until ``max_batch`` or
  ``batch_timeout`` (the standard dynamic-batching policy),
* a server executes each batch with the service time the performance
  models predict for that (platform, batch size),
* the simulator reports throughput and latency percentiles.

Service-time lookup interpolates between profiled batch sizes, so one
:class:`~repro.core.speedup.SweepResult` parameterizes any policy.

:class:`BatchFormation` is the one batch-formation step: this module's
plain loop and the resilient engine in :mod:`repro.resilience.engine`
both form every batch with it.
"""

from __future__ import annotations

import math
import numbers
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry

if TYPE_CHECKING:  # avoid runtime circularity with repro.core
    from repro.core.speedup import SweepResult
    from repro.runtime.session import InferenceProfile

__all__ = [
    "ServiceTimeModel",
    "BatchingPolicy",
    "BatchFormation",
    "ScheduleResult",
    "QueryScheduler",
    "poisson_arrivals",
    "validate_run",
]


class ServiceTimeModel:
    """Interpolated end-to-end latency for one (model, platform).

    Also carries the data-communication component of each knot when the
    source profiles provide it, so fault models that degrade the
    transfer path (PCIe events) can scale exactly that term.
    """

    def __init__(self, sweep: "SweepResult", model: str, platform: str) -> None:
        self.model = model
        self.platform = platform
        batches = sorted(sweep.batch_sizes)
        self._set_knots(
            batches,
            [sweep.total_seconds(model, platform, b) for b in batches],
            [sweep.profile(model, platform, b).data_comm_seconds
             for b in batches],
        )

    def _set_knots(
        self,
        batches: List[int],
        times: List[float],
        comm_times: Optional[List[float]] = None,
    ) -> None:
        if not batches:
            raise ValueError(
                "cannot build a service-time model from empty knots: "
                "no profiled batch sizes"
            )
        if any(b < 1 for b in batches):
            raise ValueError(f"batch-size knots must be >= 1, got {batches}")
        if any(b >= nxt for b, nxt in zip(batches, batches[1:])):
            raise ValueError(
                "batch-size knots must be strictly increasing "
                f"(non-monotone knots: {batches})"
            )
        if any(not math.isfinite(t) or t < 0 for t in times):
            raise ValueError(
                f"service-time knots must be finite and non-negative: {times}"
            )
        self._batches = batches
        self._times = times
        self._comm_times = comm_times
        # Interpolation runs per dispatched batch; precompute the
        # log-batch knots so `seconds()` does no log of the knots.
        self._log_batches = [math.log(b) for b in batches]

    @classmethod
    def from_profiles(
        cls, profiles: Sequence["InferenceProfile"]
    ) -> "ServiceTimeModel":
        """Build directly from profiles of one (model, platform).

        Lets callers (e.g. ``repro trace``) parameterize a scheduler
        from a handful of targeted profiles without running a full
        cross-platform sweep.
        """
        if len(profiles) < 2:
            raise ValueError("need profiles at >= 2 batch sizes to interpolate")
        names = {(p.model_name, p.platform_name) for p in profiles}
        if len(names) != 1:
            raise ValueError(
                f"profiles span multiple (model, platform) pairs: {sorted(names)}"
            )
        by_batch = {p.batch_size: p.total_seconds for p in profiles}
        if len(by_batch) < 2:
            raise ValueError("profiles must cover >= 2 distinct batch sizes")
        by_batch_comm = {p.batch_size: p.data_comm_seconds for p in profiles}
        model = cls.__new__(cls)
        model.model, model.platform = next(iter(names))
        model._set_knots(
            sorted(by_batch),
            [by_batch[b] for b in sorted(by_batch)],
            [by_batch_comm[b] for b in sorted(by_batch)],
        )
        return model

    def _interpolate(self, values: List[float], batch_size: int) -> float:
        """Log-linear interpolation, clamped to the profiled knot range.

        Clamping (rather than extrapolating the last segment's slope)
        keeps out-of-range queries honest: beyond the profiled grid we
        have no data, and a silently extrapolated latency can go wild
        or even negative. Callers who care should profile wider grids.
        """
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        batches = self._batches
        if batch_size <= batches[0]:
            return values[0]
        if batch_size >= batches[-1]:
            return values[-1]
        hi = bisect_left(batches, batch_size)
        lo = hi - 1
        # Interpolate in log-batch space (latency curves are smooth there).
        logs = self._log_batches
        t = (math.log(batch_size) - logs[lo]) / (logs[hi] - logs[lo])
        return float(values[lo] * (1 - t) + values[hi] * t)

    def seconds(self, batch_size: int) -> float:
        """Latency of one batch, log-linearly interpolated (clamped)."""
        return self._interpolate(self._times, batch_size)

    def comm_seconds(self, batch_size: int) -> float:
        """Data-communication component of one batch's latency.

        0.0 when the source knots carried no communication split (e.g.
        a model built directly from total times).
        """
        if self._comm_times is None:
            return 0.0
        return self._interpolate(self._comm_times, batch_size)


@dataclass(frozen=True)
class BatchingPolicy:
    """Dynamic batching: dispatch at ``max_batch`` or after ``timeout``."""

    max_batch: int = 64
    batch_timeout_s: float = 0.002

    def __post_init__(self) -> None:
        if isinstance(self.max_batch, bool) or not isinstance(
            self.max_batch, (int, np.integer)
        ):
            raise TypeError(
                f"max_batch must be an integer, got {self.max_batch!r}"
            )
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if not math.isfinite(self.batch_timeout_s):
            raise ValueError(
                f"batch_timeout_s must be finite, got {self.batch_timeout_s!r}"
            )
        if self.batch_timeout_s < 0:
            raise ValueError("batch timeout must be non-negative")


def check_policy(policy: BatchingPolicy) -> None:
    """Reject a ``policy`` that is not a :class:`BatchingPolicy`."""
    if not isinstance(policy, BatchingPolicy):
        raise TypeError(f"policy must be a BatchingPolicy, got {policy!r}")


def validate_run(
    policy: BatchingPolicy, arrival_qps: float, num_queries: int
) -> None:
    """Reject bad inputs to a serving engine's ``run``, naming them.

    Both engines call this before drawing any arrival.
    """
    check_policy(policy)
    if isinstance(num_queries, bool) or not isinstance(
        num_queries, numbers.Integral
    ):
        raise ValueError(
            f"num_queries must be an integer, got {num_queries!r}"
        )
    if num_queries < 1:
        raise ValueError(
            f"num_queries: need at least one query, got {num_queries}"
        )
    if isinstance(arrival_qps, bool) or not isinstance(
        arrival_qps, numbers.Real
    ):
        raise TypeError(f"arrival_qps must be a number, got {arrival_qps!r}")
    if not math.isfinite(arrival_qps) or arrival_qps <= 0:
        raise ValueError(
            "arrival_qps: arrival rate must be a positive finite QPS, got "
            f"{arrival_qps!r}"
        )
    # Defensive re-checks: a policy constructed through pickling or
    # __new__ could bypass __post_init__, and a bad timeout would
    # make the batching loop hang or divide by zero.
    if policy.max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {policy.max_batch}")
    if not math.isfinite(policy.batch_timeout_s) or (
        policy.batch_timeout_s < 0
    ):
        raise ValueError(
            "batch timeout must be finite and non-negative, got "
            f"{policy.batch_timeout_s!r}"
        )


def _check_sla(sla_seconds: float, percentile: float) -> None:
    """Reject a bad tail-latency target, naming the argument."""
    for name, value in (
        ("sla_seconds", sla_seconds), ("percentile", percentile)
    ):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"{name} must be a number, got {value!r}")
    if not (math.isfinite(sla_seconds) and sla_seconds > 0):
        raise ValueError(
            f"sla_seconds must be positive and finite, got {sla_seconds!r}"
        )
    if not 0 <= percentile <= 100:
        raise ValueError(
            f"percentile must be in [0, 100], got {percentile!r}"
        )


def poisson_arrivals(
    rng: np.random.Generator, arrival_qps: float, num_queries: int
) -> np.ndarray:
    """Sorted Poisson arrival times, summed in place over the gaps.

    The first arrival is also the first inter-arrival gap.
    """
    arrivals = rng.exponential(1.0 / arrival_qps, size=num_queries)
    return np.cumsum(arrivals, out=arrivals)


class BatchFormation:
    """The dynamic-batching step both serving engines share.

    A batch opens at its head attempt's ready time and admits work until
    ``dispatch_at``: the head's timeout, or later while the server is
    still busy. First attempts (the sorted ``arrivals``) join as one
    slice, up to ``max_batch`` members. A batch that fills closes early,
    at its last member's ready time; it starts at its close or when the
    server frees, whichever is later.
    """

    __slots__ = ("ready", "max_batch", "timeout_s", "_n")

    def __init__(self, arrivals: np.ndarray, policy: BatchingPolicy) -> None:
        #: ``arrivals`` read as Python floats, without a copy.
        self.ready = memoryview(arrivals)
        self.max_batch = policy.max_batch
        self.timeout_s = policy.batch_timeout_s
        self._n = len(arrivals)

    def window(
        self, head_ready: float, free_at: float, lo: int, room: int
    ) -> Tuple[float, int]:
        """``(dispatch_at, hi)`` for a head ready at ``head_ready``.

        First attempts ``lo:hi`` are those ready by ``dispatch_at``, at
        most ``room`` of them: ``hi`` is
        ``arrivals.searchsorted(dispatch_at, "right")`` clamped to
        ``[lo, lo + room]``. Bisecting only that range of a memoryview
        costs a fraction of one numpy ``searchsorted`` call.
        """
        dispatch_at = head_ready + self.timeout_s
        if dispatch_at < free_at:
            dispatch_at = free_at
        hi = min(lo + room, self._n)
        return dispatch_at, bisect_right(self.ready, dispatch_at, lo, hi)

    def start(
        self, dispatch_at: float, size: int, last_ready: float, free_at: float
    ) -> Tuple[float, float]:
        """``(close, start)`` of a batch of ``size`` members: when it
        stopped admitting work, and when the server begins it."""
        close = last_ready if size == self.max_batch else dispatch_at
        return close, (close if close >= free_at else free_at)


def _queue_depths(
    arrivals: np.ndarray, batch_sizes: List[int], starts: array
) -> List[int]:
    """Queue depth at each dispatch: everything that has arrived by the
    batch's start but not left with an earlier batch (at least the
    batch itself)."""
    sizes = np.asarray(batch_sizes)
    heads = np.cumsum(sizes) - sizes
    arrived = np.searchsorted(arrivals, np.frombuffer(starts), side="right")
    return np.maximum(arrived - heads, sizes).tolist()


@dataclass
class ScheduleResult:
    """Outcome of one simulated query stream."""

    queries: int
    duration_s: float
    latencies_s: np.ndarray = field(repr=False)
    batch_sizes: List[int] = field(repr=False)

    @property
    def throughput_qps(self) -> float:
        return self.queries / self.duration_s if self.duration_s > 0 else 0.0

    def percentile(self, p: float) -> float:
        if len(self.latencies_s) == 0:
            raise ValueError(
                "no latencies recorded: the simulation completed zero "
                "queries, so percentiles are undefined"
            )
        return float(np.percentile(self.latencies_s, p))

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def mean_batch_size(self) -> float:
        return float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0

    def meets_sla(self, sla_seconds: float, percentile: float = 99.0) -> bool:
        return self.percentile(percentile) <= sla_seconds

    # -- run-ledger exports --------------------------------------------------

    def latency_histogram(self, exact_cap: int = 4096):
        """Completed-query latencies as a serializable StreamingHistogram.

        Under ``exact_cap`` observations the histogram's quantiles match
        ``percentile()`` exactly, so a persisted
        :class:`~repro.ledger.RunRecord` reproduces this run's p50/p95/
        p99 from histogram state alone — and shard records merge.
        """
        from repro.telemetry import StreamingHistogram

        hist = StreamingHistogram(exact_cap=exact_cap)
        hist.observe_many(self.latencies_s)
        return hist

    def occupancy_histogram(self, max_batch: int):
        """Dispatched batch sizes as a histogram (queue-depth regime)."""
        from repro.telemetry import StreamingHistogram

        hist = StreamingHistogram(
            min_value=1.0, max_value=float(max(max_batch, 2)) * 2.0
        )
        hist.observe_many(np.asarray(self.batch_sizes, dtype=float))
        return hist


class QueryScheduler:
    """Discrete-event simulation of one batching server: the bare
    kernel, which takes no sink.

    A run observed through a ``TimeSeries`` or a ``QueryTraceCapture``
    is a one-replica :class:`~repro.resilience.ResilientScheduler`
    (``[Replica(service_model.platform, service_model)]``), whose
    results are bit-identical to this loop's; a fleet of fault-prone
    replicas is one too, or a named scenario's
    :func:`~repro.monitor.scenario.build_scenario`.
    """

    def __init__(
        self,
        service_model: ServiceTimeModel,
        policy: BatchingPolicy,
        seed: int = 2020,
    ) -> None:
        check_policy(policy)
        self.service_model = service_model
        self.policy = policy
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def run(self, arrival_qps: float, num_queries: int = 2000) -> ScheduleResult:
        """Simulate ``num_queries`` Poisson arrivals at ``arrival_qps``."""
        validate_run(self.policy, arrival_qps, num_queries)
        arrivals = poisson_arrivals(self._rng, arrival_qps, num_queries)
        max_batch = self.policy.max_batch
        form = BatchFormation(arrivals, self.policy)
        # service[b] is seconds(b), one lookup per batch size; no batch
        # is empty, so index 0 is unused.
        service = [math.nan] + [
            self.service_model.seconds(b)
            for b in range(1, min(max_batch, num_queries) + 1)
        ]

        # The loop records each batch's size and start; the registry
        # metrics replay them after the run.
        batch_sizes: List[int] = []
        starts = array("d")
        ready = form.ready
        server_free_at = 0.0
        i = 0
        while i < num_queries:
            # The head query opens the window; whatever arrives by
            # dispatch_at joins, up to max_batch. A busy server extends
            # the window for free.
            dispatch_at, j = form.window(
                ready[i], server_free_at, i, max_batch
            )
            batch = j - i
            # A batch that fills before the timeout dispatches early.
            _, start = form.start(
                dispatch_at, batch, ready[j - 1], server_free_at
            )
            server_free_at = start + service[batch]
            batch_sizes.append(batch)
            starts.append(start)
            i = j

        finishes = np.frombuffer(starts) + np.take(service, batch_sizes)
        latencies = np.repeat(finishes, batch_sizes)
        latencies -= arrivals
        # The stream starts at 0: (end - first arrival) + first gap, in
        # this order so the float sum stays bit-identical.
        first_gap = arrivals[0]
        duration = float(server_free_at - first_gap + first_gap)
        if telemetry.enabled():
            self._emit_metrics(arrivals, latencies, batch_sizes, starts)
        return ScheduleResult(
            queries=num_queries,
            duration_s=duration,
            latencies_s=latencies,
            batch_sizes=batch_sizes,
        )

    # -- observation: a replay of the recorded batches -------------------------

    def _emit_metrics(self, arrivals, latencies, batch_sizes, starts) -> None:
        registry = telemetry.get_registry()
        labels = dict(
            model=self.service_model.model,
            platform=self.service_model.platform,
        )
        queue_gauge = registry.gauge("scheduler.queue_depth", **labels)
        occupancy_hist = registry.histogram(
            "scheduler.batch_occupancy",
            min_value=1.0,
            max_value=float(max(self.policy.max_batch, 2)),
            exact_cap=0,
            **labels,
        )
        latency_hist = registry.histogram(
            "scheduler.query_latency_s", exact_cap=0, **labels
        )
        registry.counter("scheduler.runs", **labels).inc()
        depths = _queue_depths(arrivals, batch_sizes, starts)
        i = 0
        for batch, depth in zip(batch_sizes, depths):
            queue_gauge.set(depth)
            occupancy_hist.observe(batch)
            latency_hist.observe_many(latencies[i:i + batch])
            i += batch
        registry.counter("scheduler.queries", **labels).inc(len(latencies))
        registry.counter("scheduler.batches", **labels).inc(len(batch_sizes))

    def max_load_under_sla(
        self,
        sla_seconds: float,
        percentile: float = 99.0,
        num_queries: int = 2000,
        qps_grid: Optional[Sequence[float]] = None,
    ) -> float:
        """Largest tested arrival rate whose tail latency meets the SLA.

        The answer, and the generator state every later :meth:`run`
        starts from, are those of a forward scan that runs each load of
        ``qps_grid`` in turn. The search reaches them with fewer runs: it
        records the generator state before each load's arrival draw,
        then simulates the loads from the highest down, each on its own
        draw, and stops at the first that meets the SLA. Only the
        simulated loads reach the telemetry registry's ``scheduler.*``
        counters. The answer is 0.0 when no load meets the SLA. Bad
        inputs raise before any draw, naming the argument.
        """
        _check_sla(sla_seconds, percentile)
        if qps_grid is None:
            # Geometric grid anchored at the server's best-case capacity.
            peak = self.policy.max_batch / self.service_model.seconds(
                self.policy.max_batch
            )
            qps_grid = [peak * f for f in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95)]
        qps_grid = list(qps_grid)
        if not qps_grid:
            raise ValueError("qps_grid: need at least one arrival rate")
        for qps in qps_grid:
            validate_run(self.policy, qps, num_queries)

        # Record. poisson_arrivals draws exponential(1 / qps, n), which
        # is 1 / qps * standard_exponential(n) from the same stream, so
        # one standard draw moves past a load's arrivals.
        bit_generator = self._rng.bit_generator
        scratch = np.empty(num_queries)
        states = []
        for _ in qps_grid:
            states.append(bit_generator.state)
            self._rng.standard_exponential(out=scratch)
        end_state = bit_generator.state
        del scratch  # freed before the runs allocate theirs

        # Search, highest load first; the stable sort keeps duplicate
        # loads in grid order, as the forward scan's max() does.
        best = 0.0
        for k in sorted(
            range(len(qps_grid)), key=qps_grid.__getitem__, reverse=True
        ):
            bit_generator.state = states[k]
            if self.run(qps_grid[k], num_queries).meets_sla(
                sla_seconds, percentile
            ):
                best = qps_grid[k]
                break

        # Restore: the state the forward scan leaves.
        bit_generator.state = end_state
        return best
