"""Tests for the query-scheduling simulation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import SpeedupStudy
from repro.models import build_model
from repro.runtime import (
    BatchFormation,
    BatchingPolicy,
    QueryScheduler,
    ScheduleResult,
    ServiceTimeModel,
)


@pytest.fixture(scope="module")
def sweep():
    models = {n: build_model(n) for n in ("rm2", "rm3")}
    return SpeedupStudy(models=models, batch_sizes=[1, 16, 256, 4096]).run()


class TestServiceTimeModel:
    def test_exact_at_profiled_points(self, sweep):
        stm = ServiceTimeModel(sweep, "rm3", "t4")
        for batch in (1, 16, 256, 4096):
            assert stm.seconds(batch) == pytest.approx(
                sweep.total_seconds("rm3", "t4", batch)
            )

    def test_interpolation_monotonic(self, sweep):
        stm = ServiceTimeModel(sweep, "rm3", "broadwell")
        times = [stm.seconds(b) for b in (1, 3, 16, 40, 256, 1000, 4096)]
        assert times == sorted(times)

    def test_clamps_beyond_grid(self, sweep):
        """Outside the profiled knots the model clamps, never extrapolates."""
        stm = ServiceTimeModel(sweep, "rm2", "broadwell")
        assert stm.seconds(8192) == stm.seconds(4096)
        assert stm.seconds(10 ** 9) == stm.seconds(4096)
        assert stm.seconds(1) == stm.seconds(1)  # smallest knot is exact

    def test_invalid_batch(self, sweep):
        stm = ServiceTimeModel(sweep, "rm2", "t4")
        for bad in (0, -1, -100):
            with pytest.raises(ValueError, match="batch size must be >= 1"):
                stm.seconds(bad)

    def test_comm_seconds_interpolates(self, sweep):
        stm = ServiceTimeModel(sweep, "rm2", "t4")
        for batch in (1, 16, 256, 4096):
            assert stm.comm_seconds(batch) == pytest.approx(
                sweep.profile("rm2", "t4", batch).data_comm_seconds
            )
        assert 0.0 < stm.comm_seconds(64) < stm.seconds(64)
        assert stm.comm_seconds(8192) == stm.comm_seconds(4096)

    def test_rejects_bad_knots(self, sweep):
        stm = ServiceTimeModel(sweep, "rm2", "t4")
        with pytest.raises(ValueError, match="empty knots"):
            stm._set_knots([], [])
        with pytest.raises(ValueError, match="non-monotone"):
            stm._set_knots([1, 16, 16, 256], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="non-monotone"):
            stm._set_knots([16, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            stm._set_knots([1, 16], [1.0, float("nan")])
        with pytest.raises(ValueError, match=">= 1"):
            stm._set_knots([0, 16], [1.0, 2.0])


class TestBatchingPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchingPolicy(batch_timeout_s=-1)

    @pytest.mark.parametrize("max_batch", [2.5, True, "64", None])
    def test_rejects_non_integer_max_batch(self, max_batch):
        with pytest.raises(TypeError, match="max_batch"):
            BatchingPolicy(max_batch=max_batch)

    def test_accepts_numpy_integer_max_batch(self):
        assert BatchingPolicy(max_batch=np.int64(8)).max_batch == 8

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_rejects_non_finite_timeout(self, timeout):
        with pytest.raises(ValueError, match="batch_timeout_s"):
            BatchingPolicy(batch_timeout_s=timeout)


class TestBatchFormation:
    """The shared step against the scalar scan it replaced."""

    @given(st.data())
    def test_matches_scalar_scan(self, data):
        # An eighth-second grid makes ties between arrivals, heads and
        # dispatch times exact.
        ticks = st.integers(0, 40)
        arrivals = np.array(
            sorted(data.draw(st.lists(ticks, min_size=1, max_size=40))),
            dtype=float,
        ) / 8
        max_batch = data.draw(st.integers(1, 8))
        timeout = data.draw(st.sampled_from([0.0, 0.125, 0.3]))
        form = BatchFormation(
            arrivals,
            BatchingPolicy(max_batch=max_batch, batch_timeout_s=timeout),
        )
        lo = data.draw(st.integers(0, len(arrivals) - 1))
        room = data.draw(st.integers(1, max_batch))
        head = data.draw(ticks) / 8
        free_at = data.draw(ticks) / 8

        dispatch_at, hi = form.window(head, free_at, lo, room)
        assert dispatch_at == max(head + timeout, free_at)
        j = lo
        while (
            j < len(arrivals) and j - lo < room and arrivals[j] <= dispatch_at
        ):
            j += 1
        assert hi == j

        size = data.draw(st.integers(1, max_batch))
        last = data.draw(ticks) / 8
        close, start = form.start(dispatch_at, size, last, free_at)
        if size == max_batch:
            assert (close, start) == (last, max(last, free_at))
        else:
            assert (close, start) == (dispatch_at, max(dispatch_at, free_at))


class TestScheduler:
    def _scheduler(self, sweep, model="rm3", platform="t4", **policy_kwargs):
        policy = BatchingPolicy(**policy_kwargs)
        return QueryScheduler(ServiceTimeModel(sweep, model, platform), policy)

    def test_all_queries_served(self, sweep):
        result = self._scheduler(sweep).run(arrival_qps=5000, num_queries=500)
        assert result.queries == 500
        assert len(result.latencies_s) == 500
        assert np.all(result.latencies_s > 0)

    def test_percentiles_ordered(self, sweep):
        result = self._scheduler(sweep).run(arrival_qps=5000, num_queries=800)
        assert result.p50 <= result.p95 <= result.p99

    def test_latency_grows_with_load(self, sweep):
        scheduler = self._scheduler(sweep, max_batch=256)
        light = scheduler.run(arrival_qps=1000, num_queries=800)
        heavy = scheduler.run(arrival_qps=40000, num_queries=800)
        assert heavy.p99 > light.p99

    def test_batches_fill_under_load(self, sweep):
        scheduler = self._scheduler(sweep, max_batch=256, batch_timeout_s=0.001)
        light = scheduler.run(arrival_qps=500, num_queries=400)
        heavy = scheduler.run(arrival_qps=100_000, num_queries=2000)
        assert heavy.mean_batch_size > 4 * light.mean_batch_size
        assert max(heavy.batch_sizes) <= 256

    def test_batch_cap_respected(self, sweep):
        scheduler = self._scheduler(sweep, max_batch=8)
        result = scheduler.run(arrival_qps=50_000, num_queries=500)
        assert max(result.batch_sizes) <= 8

    def test_sla_check(self, sweep):
        result = self._scheduler(sweep).run(arrival_qps=1000, num_queries=400)
        assert result.meets_sla(10.0)
        assert not result.meets_sla(1e-9)

    def test_deterministic_with_seed(self, sweep):
        stm = ServiceTimeModel(sweep, "rm3", "t4")
        policy = BatchingPolicy()
        r1 = QueryScheduler(stm, policy, seed=3).run(2000, 300)
        r2 = QueryScheduler(stm, policy, seed=3).run(2000, 300)
        np.testing.assert_array_equal(r1.latencies_s, r2.latencies_s)

    def test_invalid_inputs(self, sweep):
        scheduler = self._scheduler(sweep)
        for bad_qps in (0, -5, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="arrival rate"):
                scheduler.run(arrival_qps=bad_qps)
        for bad_n in (0, -1):
            with pytest.raises(ValueError, match="at least one query"):
                scheduler.run(arrival_qps=100, num_queries=bad_n)
        with pytest.raises(ValueError, match="integer"):
            scheduler.run(arrival_qps=100, num_queries=12.5)

    @pytest.mark.parametrize("num_queries", [True, False, 12.5, "10", None])
    def test_run_rejects_non_integer_queries(self, sweep, num_queries):
        with pytest.raises(ValueError, match="num_queries must be an integer"):
            self._scheduler(sweep).run(1000.0, num_queries)

    def test_run_accepts_numpy_integer_queries(self, sweep):
        result = self._scheduler(sweep).run(1000.0, np.int64(30))
        assert result.queries == 30 and len(result.latencies_s) == 30

    @pytest.mark.parametrize("qps", ["1000", None, True])
    def test_run_rejects_non_numeric_rate(self, sweep, qps):
        with pytest.raises(TypeError, match="arrival_qps"):
            self._scheduler(sweep).run(qps, 10)

    def test_rejects_non_policy(self, sweep):
        stm = ServiceTimeModel(sweep, "rm3", "t4")
        with pytest.raises(TypeError, match="policy must be a BatchingPolicy"):
            QueryScheduler(stm, 64)

    def test_max_load_under_sla(self, sweep):
        scheduler = self._scheduler(sweep, max_batch=256)
        capacity = scheduler.max_load_under_sla(
            sla_seconds=0.1, num_queries=500
        )
        assert capacity > 0

    def test_gpu_sustains_more_load_than_cpu_for_fc_model(self, sweep):
        """The at-scale version of Fig 3: under a loose SLA the GPU
        server sustains far more RM3 load than a Broadwell server."""
        gpu = self._scheduler(sweep, "rm3", "t4", max_batch=1024)
        cpu = self._scheduler(sweep, "rm3", "broadwell", max_batch=1024)
        sla = 0.25
        gpu_cap = gpu.max_load_under_sla(sla, num_queries=600)
        cpu_cap = cpu.max_load_under_sla(sla, num_queries=600)
        assert gpu_cap > 2 * cpu_cap
