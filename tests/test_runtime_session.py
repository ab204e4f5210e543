"""Tests for the runtime session layer."""

import numpy as np
import pytest

from repro.hw import BROADWELL, T4
from repro.models import build_model
from repro.runtime import InferenceSession
from repro.uarch import DEFAULT_CONSTANTS
from repro.workloads import QueryGenerator


class TestInferenceSession:
    def test_cpu_profile_has_events(self):
        session = InferenceSession(build_model("rm1"), "broadwell")
        profile = session.profile(16)
        assert profile.platform_kind == "cpu"
        assert profile.events is not None
        assert profile.events.cycles > 0

    def test_gpu_profile_has_no_events(self):
        session = InferenceSession(build_model("rm1"), "t4")
        profile = session.profile(16)
        assert profile.platform_kind == "gpu"
        assert profile.events is None

    def test_platform_accepts_spec_objects(self):
        assert InferenceSession(build_model("ncf"), BROADWELL).platform is BROADWELL
        assert InferenceSession(build_model("ncf"), T4).platform is T4

    def test_constants_rejected_for_gpu(self):
        with pytest.raises(ValueError):
            InferenceSession(build_model("ncf"), "t4", constants=DEFAULT_CONSTANTS)

    def test_graph_cached_per_batch(self):
        session = InferenceSession(build_model("ncf"), "broadwell")
        assert session.graph(16) is session.graph(16)
        assert session.graph(16) is not session.graph(32)

    def test_run_executes_numerically(self):
        model = build_model("ncf")
        session = InferenceSession(model, "broadwell")
        feeds = QueryGenerator(model).generate(4)
        (out,) = session.run(feeds).values()
        assert out.shape == (4, 1)

    def test_run_generated(self):
        session = InferenceSession(build_model("rm1"), "t4")
        (out,) = session.run_generated(4).values()
        assert out.shape[0] == 4
        assert np.all(np.isfinite(out))

    def test_profile_totals_consistent(self):
        session = InferenceSession(build_model("rm2"), "gtx1080ti")
        profile = session.profile(256)
        assert profile.total_seconds == pytest.approx(
            profile.compute_seconds + profile.data_comm_seconds
        )
        assert 0.0 <= profile.data_comm_fraction <= 1.0

    def test_throughput(self):
        session = InferenceSession(build_model("ncf"), "broadwell")
        profile = session.profile(256)
        assert profile.throughput_qps == pytest.approx(
            256 / profile.total_seconds
        )

    def test_dominant_operator_present_in_breakdown(self):
        session = InferenceSession(build_model("rm2"), "broadwell")
        profile = session.profile(64)
        assert profile.dominant_operator() in profile.op_time_by_kind

    def test_functional_and_performance_same_graph(self):
        """The performance model profiles the very graph that computes."""
        model = build_model("ncf")
        session = InferenceSession(model, "broadwell")
        profile = session.profile(4)
        feeds = QueryGenerator(model).generate(4)
        session.run(feeds)
        assert profile.batch_size == 4
        assert set(profile.op_time_by_kind) == set(session.graph(4).kinds())


class TestBoundaryValidation:
    @pytest.mark.parametrize("model", ["rm1", None, 3])
    def test_model_must_be_a_recommendation_model(self, model):
        with pytest.raises(TypeError, match="model"):
            InferenceSession(model, "broadwell")

    def test_service_model_for_rejects_model_name(self):
        from repro.monitor.scenario import service_model_for

        with pytest.raises(TypeError, match="model"):
            service_model_for("rm1", "t4", 64)

    @pytest.mark.parametrize("batch", [True, 2.5, "8", None, np.float64(8)])
    def test_batch_size_must_be_an_int(self, batch):
        session = InferenceSession(build_model("ncf"), "broadwell")
        with pytest.raises(TypeError, match="batch_size"):
            session.profile(batch)

    @pytest.mark.parametrize("batch", [0, -1, np.int64(0)])
    def test_batch_size_must_be_positive(self, batch):
        session = InferenceSession(build_model("ncf"), "t4")
        with pytest.raises(ValueError, match="batch_size"):
            session.profile(batch)

    def test_numpy_integer_batch_accepted(self):
        session = InferenceSession(build_model("ncf"), "broadwell")
        profile = session.profile(np.int64(16))
        assert profile.batch_size == 16
        assert type(profile.batch_size) is int
        assert profile.total_seconds == session.profile(16).total_seconds
