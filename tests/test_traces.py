"""Tests for diurnal load traces."""

import pytest

from repro.workloads import DiurnalTrace


class TestDiurnalTrace:
    def test_interval_count_and_bounds(self):
        trace = DiurnalTrace(trough_qps=100, peak_qps=1000, noise_sigma=0.0)
        intervals = trace.intervals()
        assert len(intervals) == 24
        rates = [i.arrival_qps for i in intervals]
        assert min(rates) == pytest.approx(100, rel=0.05)
        assert max(rates) == pytest.approx(1000, rel=0.05)

    def test_peak_at_peak_hour(self):
        trace = DiurnalTrace(
            trough_qps=10, peak_qps=100, peak_hour=19.0, noise_sigma=0.0
        )
        intervals = trace.intervals()
        peak = max(intervals, key=lambda i: i.arrival_qps)
        assert peak.hour == pytest.approx(19.0)

    def test_noise_reproducible(self):
        a = DiurnalTrace(seed=5).intervals()
        b = DiurnalTrace(seed=5).intervals()
        assert [i.arrival_qps for i in a] == [i.arrival_qps for i in b]

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalTrace(trough_qps=0)
        with pytest.raises(ValueError):
            DiurnalTrace(trough_qps=100, peak_qps=50)
        with pytest.raises(ValueError):
            DiurnalTrace(intervals_per_day=0)

    def test_daily_queries_positive(self):
        assert DiurnalTrace().daily_queries > 0
