"""Cross-stack telemetry integration: every layer records when enabled,
nothing records when disabled, and the exported trace agrees with the
profiles it came from (the Fig 6 correspondence)."""

import collections
import json

import numpy as np
import pytest

from repro import telemetry
from repro.models import build_model
from repro.runtime import (
    BatchingPolicy,
    InferenceSession,
    QueryScheduler,
    ScheduleResult,
    ServiceTimeModel,
    profile_spans,
)
from repro.telemetry import MODELED_TID


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def _scheduler_for(session, batch):
    profiles = [session.profile(b) for b in (1, max(2, batch // 4), batch)]
    return QueryScheduler(
        ServiceTimeModel.from_profiles(profiles),
        BatchingPolicy(max_batch=batch),
    )


class TestProfileSpans:
    def test_per_kind_span_sums_match_profile(self):
        """Acceptance: trace span durations reproduce op_time_by_kind."""
        session = InferenceSession(build_model("dlrm_rm2"), "cascade-lake")
        with telemetry.capture() as (tracer, _):
            profile = session.profile(64)
        sums = collections.defaultdict(float)
        for span in tracer.spans():
            if span.tid == MODELED_TID and span.category != "DataComm":
                sums[span.category] += span.duration_s
        assert set(sums) == set(profile.op_time_by_kind)
        for kind, expected in profile.op_time_by_kind.items():
            assert abs(sums[kind] - expected) < 1e-9

    def test_spans_serial_and_after_data_comm(self):
        session = InferenceSession(build_model("rm1"), "broadwell")
        profile = session.profile(16)
        spans = profile_spans(profile)
        assert spans[0].start_s == pytest.approx(profile.data_comm_seconds)
        for prev, cur in zip(spans, spans[1:]):
            assert cur.start_s == pytest.approx(prev.end_s)

    def test_gpu_profile_spans_recorded(self):
        session = InferenceSession(build_model("wnd"), "t4")
        with telemetry.capture() as (tracer, registry):
            session.profile(256)
        modeled = [s for s in tracer.spans() if s.tid == MODELED_TID]
        assert any(s.category == "DataComm" for s in modeled)
        assert any(s.category == "FC" for s in modeled)
        names = {r["name"] for r in registry.snapshot()}
        assert "gpusim.kernel_launches" in names


class TestSessionMetrics:
    def test_pmu_counters_labeled(self):
        session = InferenceSession(build_model("rm2"), "broadwell")
        with telemetry.capture() as (_, registry):
            profile = session.profile(16)
        cycles = registry.find(
            "pmu.cycles", model="rm2", platform=session.platform.name
        )
        assert cycles is not None
        assert cycles.value == pytest.approx(profile.events.cycles)

    def test_per_kind_histograms(self):
        session = InferenceSession(build_model("rm2"), "broadwell")
        with telemetry.capture() as (_, registry):
            profile = session.profile(16)
        for kind, seconds in profile.op_time_by_kind.items():
            h = registry.find(
                "session.op_seconds",
                kind=kind,
                model="rm2",
                platform=session.platform.name,
            )
            assert h is not None
            assert h.total == pytest.approx(seconds)

    def test_uarch_counters(self):
        session = InferenceSession(build_model("ncf"), "cascade_lake")
        with telemetry.capture() as (_, registry):
            session.profile(8)
        names = {r["name"] for r in registry.snapshot()}
        assert {"uarch.graphs_profiled", "uarch.cycles",
                "uarch.instructions"} <= names


class TestExecutorTelemetry:
    def test_run_records_spans_and_bytes_freed(self):
        session = InferenceSession(build_model("ncf"), "broadwell")
        with telemetry.capture() as (tracer, registry):
            session.run_generated(4)
        executor_spans = [s for s in tracer.spans() if s.category == "executor"]
        graph = session.graph(4)
        assert len(executor_spans) == len(graph)
        gauge = registry.find("executor.bytes_freed", graph=graph.name)
        assert gauge is not None and gauge.value > 0
        nodes = registry.find("executor.nodes_executed", graph=graph.name)
        assert nodes.value == len(graph)

    def test_run_span_wraps_executor_spans(self):
        session = InferenceSession(build_model("ncf"), "broadwell")
        with telemetry.capture() as (tracer, _):
            session.run_generated(4)
        spans = tracer.sorted_spans()
        run_span = next(s for s in spans if s.name == "session.run")
        for span in spans:
            if span.category == "executor":
                assert span.parent_id is not None
                assert run_span.start_s <= span.start_s <= run_span.end_s


class TestSchedulerTelemetry:
    def test_queue_depth_occupancy_latency_in_snapshot(self):
        session = InferenceSession(build_model("rm1"), "broadwell")
        scheduler = _scheduler_for(session, 32)
        with telemetry.capture() as (_, registry):
            result = scheduler.run(2000.0, num_queries=400)
        snap = {r["name"]: r for r in registry.snapshot()}
        assert snap["scheduler.queue_depth"]["samples"] > 0
        assert snap["scheduler.queue_depth"]["max"] >= 1
        occ = snap["scheduler.batch_occupancy"]
        assert occ["count"] == len(result.batch_sizes)
        assert occ["mean"] == pytest.approx(result.mean_batch_size)
        lat = snap["scheduler.query_latency_s"]
        assert lat["count"] == result.queries
        assert lat["sum"] == pytest.approx(float(np.sum(result.latencies_s)))

    def test_latency_histogram_percentiles_close_to_exact(self):
        session = InferenceSession(build_model("rm1"), "broadwell")
        scheduler = _scheduler_for(session, 32)
        with telemetry.capture() as (_, registry):
            result = scheduler.run(2000.0, num_queries=800)
        h = registry.find(
            "scheduler.query_latency_s", model="rm1",
            platform=session.platform.name,
        )
        assert not h.is_exact  # streaming, no raw list retained
        for p in (50, 95, 99):
            assert h.quantile(p) == pytest.approx(result.percentile(p), rel=0.06)

    def test_empty_schedule_percentile_raises_clearly(self):
        result = ScheduleResult(
            queries=0,
            duration_s=0.0,
            latencies_s=np.empty(0),
            batch_sizes=[],
        )
        with pytest.raises(ValueError, match="no latencies"):
            result.percentile(99)
        with pytest.raises(ValueError, match="no latencies"):
            result.p99

    def test_service_time_model_from_profiles(self):
        session = InferenceSession(build_model("rm1"), "broadwell")
        profiles = [session.profile(b) for b in (1, 8, 32)]
        stm = ServiceTimeModel.from_profiles(profiles)
        assert stm.model == "rm1"
        assert stm.seconds(8) == pytest.approx(profiles[1].total_seconds)
        # Interpolation between profiled points stays monotone here.
        assert stm.seconds(1) < stm.seconds(16) < stm.seconds(32)

    def test_from_profiles_needs_two_batches(self):
        session = InferenceSession(build_model("rm1"), "broadwell")
        with pytest.raises(ValueError):
            ServiceTimeModel.from_profiles([session.profile(8)])


class TestDisabledIsNoop:
    def test_nothing_recorded_when_disabled(self):
        session = InferenceSession(build_model("rm1"), "broadwell")
        session.profile(16)
        session.run_generated(4)
        _scheduler_for(session, 16).run(2000.0, num_queries=100)
        assert len(telemetry.get_registry()) == 0
        assert len(telemetry.get_tracer()) == 0

    def test_profile_results_identical_with_and_without(self):
        session = InferenceSession(build_model("rm2"), "broadwell")
        baseline = session.profile(16)
        with telemetry.capture():
            instrumented = session.profile(16)
        assert instrumented.op_time_by_kind == baseline.op_time_by_kind
        assert instrumented.total_seconds == baseline.total_seconds
