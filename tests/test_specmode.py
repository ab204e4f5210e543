"""Spec-mode profiling: bit-identity to the numeric path, cache
behaviour, and the buffer-reuse planner.

The tentpole guarantee is exact: for every zoo model, batch size, and
platform — raw and optimized graphs alike — spec mode's per-op seconds,
bytes, FLOP-derived PMU events, and end-to-end splits must equal the
scalar models' values bit for bit (``==``, not approx). Anything less
would fork the characterization into two subtly different stories.
"""

import numpy as np
import pytest

from repro.core import SpeedupStudy
from repro.graph import optimize, plan_buffers, execute
from repro.gpusim import GpuModel
from repro.hw import PLATFORM_ORDER, platform_by_name
from repro.models import MODEL_ORDER, build_model
from repro.ops import materialization_count, reset_materialization_count
from repro.runtime import InferenceSession, clear_graph_cache
from repro.runtime import specmode
from repro.uarch import CpuModel
from repro.workloads import QueryGenerator
from repro import telemetry

BATCHES = [1, 64, 16384]


def _numeric_profile(graph, platform_name, input_nbytes):
    spec = platform_by_name(platform_name)
    if spec.kind == "cpu":
        return CpuModel(spec).profile_graph(
            graph, input_bytes=sum(input_nbytes)
        )
    return GpuModel(spec).profile_graph(
        graph, input_tensor_bytes=list(input_nbytes)
    )


def _spec_profile(graph, platform_name, input_nbytes):
    table = specmode.table_from_graph(graph, input_nbytes)
    stacked = specmode.stack_tables([table])
    return specmode._evaluate(stacked, platform_by_name(platform_name))[0].raw


def _assert_cpu_identical(spec_raw, num_raw):
    assert spec_raw.compute_seconds == num_raw.compute_seconds
    assert spec_raw.data_load_seconds == num_raw.data_load_seconds
    assert spec_raw.time_by_kind() == num_raw.time_by_kind()
    assert list(spec_raw.time_by_kind()) == list(num_raw.time_by_kind())
    assert spec_raw.events.as_dict() == num_raw.events.as_dict()
    assert len(spec_raw.op_profiles) == len(num_raw.op_profiles)
    for s, n in zip(spec_raw.op_profiles, num_raw.op_profiles):
        assert s.node_name == n.node_name
        assert s.op_kind == n.op_kind
        assert s.cycles == n.cycles
        assert s.execution_cycles == n.execution_cycles
        assert s.memory_stall_cycles == n.memory_stall_cycles
        assert s.frontend_stall_cycles == n.frontend_stall_cycles
        assert s.bad_speculation_cycles == n.bad_speculation_cycles
        assert s.core_bound_cycles == n.core_bound_cycles
        assert s._time_seconds == n._time_seconds
        assert s.events.as_dict() == n.events.as_dict()


def _assert_gpu_identical(spec_raw, num_raw):
    assert spec_raw.compute_seconds == num_raw.compute_seconds
    assert spec_raw.data_comm_seconds == num_raw.data_comm_seconds
    assert spec_raw.transfer.seconds == num_raw.transfer.seconds
    assert spec_raw.time_by_kind() == num_raw.time_by_kind()
    assert list(spec_raw.time_by_kind()) == list(num_raw.time_by_kind())
    assert len(spec_raw.op_profiles) == len(num_raw.op_profiles)
    for s, n in zip(spec_raw.op_profiles, num_raw.op_profiles):
        assert s.node_name == n.node_name
        assert s.op_kind == n.op_kind
        assert s.device.op_kind == n.device.op_kind
        assert s.device.kernel_count == n.device.kernel_count
        assert s.device.launch_seconds == n.device.launch_seconds
        assert s.device.compute_seconds == n.device.compute_seconds
        assert s.device.memory_seconds == n.device.memory_seconds


class TestBitIdentity:
    """Spec mode == numeric mode, exactly, for every configuration."""

    @pytest.mark.parametrize("name", MODEL_ORDER)
    def test_raw_and_optimized_graphs_identical(self, name):
        model = build_model(name)
        for batch in BATCHES:
            input_nbytes = [
                d.spec.nbytes for d in model.input_descriptions(batch)
            ]
            raw_graph = model.build_graph(batch)
            for graph in (raw_graph, optimize(raw_graph)):
                for platform_name in PLATFORM_ORDER:
                    num = _numeric_profile(graph, platform_name, input_nbytes)
                    spec = _spec_profile(graph, platform_name, input_nbytes)
                    if platform_by_name(platform_name).kind == "cpu":
                        _assert_cpu_identical(spec, num)
                    else:
                        _assert_gpu_identical(spec, num)

    @pytest.mark.parametrize("name", MODEL_ORDER)
    def test_session_spec_mode_matches_numeric(self, name):
        model = build_model(name)
        input_nbytes = [d.spec.nbytes for d in model.input_descriptions(64)]
        for platform_name in ("broadwell", "t4"):
            session = InferenceSession(model, platform_name)
            num = _numeric_profile(session.graph(64), platform_name, input_nbytes)
            got = session.profile(64)
            assert got.model_name == name
            assert got.platform_name == session.platform.name
            if session.platform.kind == "cpu":
                assert got.platform_kind == "cpu"
                assert got.data_comm_seconds == num.data_load_seconds
                assert got.events.as_dict() == num.events.as_dict()
                _assert_cpu_identical(got.raw, num)
            else:
                assert got.platform_kind == "gpu"
                assert got.data_comm_seconds == num.data_comm_seconds
                assert got.events is None
                _assert_gpu_identical(got.raw, num)
            assert got.compute_seconds == num.compute_seconds
            assert got.op_time_by_kind == num.time_by_kind()

    def test_sweep_spec_mode_matches_serial(self):
        models = {n: build_model(n) for n in MODEL_ORDER}
        batches = [1, 64]
        sweep = SpeedupStudy(models=models, batch_sizes=batches).run()
        assert list(sweep.profiles) == [
            (m, p, b) for m in models for p in PLATFORM_ORDER for b in batches
        ]
        for (name, platform_name, batch), got in sweep.profiles.items():
            model = models[name]
            num = _numeric_profile(
                model.build_graph(batch),
                platform_name,
                [d.spec.nbytes for d in model.input_descriptions(batch)],
            )
            assert got.compute_seconds == num.compute_seconds
            assert got.op_time_by_kind == num.time_by_kind()
            if got.platform_kind == "cpu":
                assert got.data_comm_seconds == num.data_load_seconds
                assert got.events.as_dict() == num.events.as_dict()
            else:
                assert got.data_comm_seconds == num.data_comm_seconds


class TestNoTensorData:
    def test_spec_sweep_materializes_nothing(self):
        clear_graph_cache()
        specmode.clear_spec_caches()
        reset_materialization_count()
        models = {n: build_model(n) for n in MODEL_ORDER}
        specmode.profile_spec_sweep(models, list(PLATFORM_ORDER), [1, 64])
        assert materialization_count() == 0


class TestSpecCaches:
    def test_table_cache_hit_on_equivalent_model(self):
        specmode.clear_spec_caches()
        specmode.get_workload_table(build_model("ncf"), 16)
        before = specmode.spec_cache_stats()
        specmode.get_workload_table(build_model("ncf"), 16)
        after = specmode.spec_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_repeat_sweep_returns_memoized_profiles(self):
        specmode.clear_spec_caches()
        models = {n: build_model(n) for n in ("ncf", "rm1")}
        first = specmode.profile_spec_sweep(models, ["broadwell"], [1, 64])
        # Fresh-but-equivalent model objects hit the table cache, which
        # keys the sweep memo: identical profile objects come back.
        rebuilt = {n: build_model(n) for n in ("ncf", "rm1")}
        second = specmode.profile_spec_sweep(rebuilt, ["broadwell"], [1, 64])
        assert list(first) == list(second)
        for key in first:
            assert first[key] is second[key]
        assert specmode.spec_cache_stats()["sweep_entries"] == 1

    def test_new_platform_extends_existing_entry(self):
        specmode.clear_spec_caches()
        models = {"ncf": build_model("ncf")}
        specmode.profile_spec_sweep(models, ["broadwell"], [1])
        specmode.profile_spec_sweep(models, ["broadwell", "t4"], [1])
        assert specmode.spec_cache_stats()["sweep_entries"] == 1

    def test_clear_resets(self):
        models = {"ncf": build_model("ncf")}
        specmode.profile_spec_sweep(models, ["broadwell"], [1])
        specmode.clear_spec_caches()
        stats = specmode.spec_cache_stats()
        assert stats["size"] == 0
        assert stats["sweep_entries"] == 0


class TestBufferPlan:
    @pytest.mark.parametrize("name", MODEL_ORDER)
    def test_peak_matches_executor(self, name):
        model = build_model(name)
        graph = model.build_graph(8)
        plan = plan_buffers(graph)
        feeds = QueryGenerator(model, seed=3).generate(8)
        with telemetry.capture() as (_, registry):
            execute(graph, feeds)
        observed = [
            m["value"]
            for m in registry.snapshot()
            if m["name"] == "executor.peak_live_bytes"
        ]
        assert observed, "executor did not record peak_live_bytes"
        assert int(observed[0]) == plan.peak_live_bytes

    @pytest.mark.parametrize("name", MODEL_ORDER)
    def test_reuse_never_exceeds_naive(self, name):
        graph = build_model(name).build_graph(16)
        plan = plan_buffers(graph)
        assert 0 < plan.peak_live_bytes <= plan.naive_bytes
        assert plan.slot_count <= len(graph)
        assert 0.0 <= plan.reuse_fraction < 1.0
        assert len(plan.timeline) == len(graph)
        assert len(plan.assignments) == len(graph)

    def test_slots_are_reused_across_lifetimes(self):
        # A deep FC chain keeps at most two intermediates alive, so the
        # planner must ping-pong between a bounded set of slots instead
        # of opening one per node.
        from repro.graph import GraphBuilder
        from repro.ops import FC

        b = GraphBuilder("deep")
        x = b.input("x", (4, 32))
        h = x
        for i in range(10):
            h = b.apply(FC(32, 32, f"fc{i}"), h)
        b.output(h)
        plan = plan_buffers(b.build())
        assert plan.slot_count <= 2
        assert plan.arena_bytes <= 2 * 4 * 32 * 4

    def test_working_set_stream_footprint(self):
        from repro.graph import working_set_stream

        graph = build_model("rm1").build_graph(8)
        stream = working_set_stream(graph)
        assert stream.footprint_bytes == plan_buffers(graph).peak_live_bytes
        assert not stream.is_write
