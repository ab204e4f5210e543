"""Self-tests of the cross-stack benchmark (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/stack -q

They call the runner's functions directly, with a few ops at 1/10 of
the workloads' simulated sizes.
"""

from __future__ import annotations

import json
import sys
import textwrap
import types

import numpy as np
import pytest

import run
import workloads
from tracer import LayerTracer

BENCHMARK_JSON = workloads.REPO / "BENCHMARK.json"

FAKE_SOURCE = textwrap.dedent(
    """
    import time

    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def inner():
        spin(0.002)

    def outer():
        spin(0.003)
        inner()
        inner()

    def boom():
        inner()
        raise RuntimeError("boom")

    class Box:
        def tick(self):
            spin(0.0005)

        @classmethod
        def make(cls):
            return cls()
    """
)


@pytest.fixture
def fake():
    module = types.ModuleType("stack_fake")
    exec(FAKE_SOURCE, module.__dict__)
    sys.modules["stack_fake"] = module
    yield module
    del sys.modules["stack_fake"]


def test_p90_refused_below_100_samples():
    with pytest.raises(ValueError):
        run.percentile([0.1] * 99, 90)
    assert run.percentile([float(i) for i in range(100)], 90) == pytest.approx(89.1)


def test_self_time_is_duration_minus_children(fake):
    layers = {"outer": ["stack_fake:outer"], "inner": ["stack_fake:inner"]}
    with LayerTracer(layers) as tracer:
        with tracer.op():
            fake.outer()
    spans = tracer.spans
    names = [s[0] for s in spans]
    assert names == ["op", "stack_fake:outer", "stack_fake:inner", "stack_fake:inner"]
    assert [s[3] for s in spans] == [-1, 0, 1, 1]
    duration = [end - start for _, start, end, _ in spans]
    assert tracer.stats["inner"].calls == 2
    assert tracer.stats["inner"].self_s == pytest.approx(duration[2] + duration[3], abs=1e-9)
    assert tracer.stats["outer"].self_s == pytest.approx(
        duration[1] - duration[2] - duration[3], abs=1e-9
    )
    assert tracer.stats["outer"].self_s > 0.0025


def test_attributes_restored_after_exception(fake):
    originals = {name: vars(fake)[name] for name in ("boom", "inner")}
    box_raw = {name: vars(fake.Box)[name] for name in ("tick", "make")}
    layers = {"a": ["stack_fake:boom", "stack_fake:inner"],
              "b": ["stack_fake:Box.tick", "stack_fake:Box.make"]}
    with pytest.raises(RuntimeError, match="boom"):
        with LayerTracer(layers) as tracer:
            assert fake.inner is not originals["inner"]
            with tracer.op():
                fake.Box.make().tick()
                fake.boom()
    assert tracer.stats["a"].calls == 2 and tracer.stats["b"].calls == 2
    assert {name: vars(fake)[name] for name in originals} == originals
    assert {name: vars(fake.Box)[name] for name in box_raw} == box_raw


def test_absent_entry_point_reports_absent(fake):
    missing = ["stack_fake:gone", "stack_fake:Box.gone", "no_such_module_xyz:f"]
    with LayerTracer({"gone": missing, "inner": ["stack_fake:inner"]}) as tracer:
        with tracer.op():
            fake.outer()
    assert tracer.absent == missing
    assert tracer.stats["gone"].calls == 0
    assert tracer.stats["inner"].calls == 2


class Flaky(workloads.Workload):
    name = "flaky"
    ops = 3

    def setup(self) -> None:
        pass

    def op(self, i):
        if i == 1:
            raise RuntimeError("flaky op")
        return i

    def check(self, out):
        return []

    def outputs(self, out):
        return [np.array([out])]


def test_raising_op_counted_and_run_continues():
    doc = run.run_workload(Flaky(), trace=0, setups=3, timed_ops=3)
    # 3 set-up ops, timed ops 0-3 (op 1 raised), 1 memory op.
    assert doc["attempted"] == 8
    assert doc["failed"] == 1
    assert doc["correct"] is False
    assert doc["samples"]["timed_ops"] == 3
    assert doc["metrics"]["ops_failed_frac"] == pytest.approx(1 / 8)
    assert "op_s.p50" in doc["metrics"]


def test_benchmark_json_matches_the_runner():
    declared = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    for w in declared["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [m["name"] for m in declared["end_to_end"]] == list(run.DECLARED)
    for m in declared["end_to_end"]:
        unit, better, bound, _ = run.END_TO_END[m["name"]]
        assert (m["unit"], m["better"], m["bound"]) == (unit, better, bound)
    layer_metrics = run.per_layer_metrics()
    assert [m["name"] for m in declared["per_layer"]] == list(layer_metrics)
    for m in declared["per_layer"]:
        assert (m["unit"], m["better"]) == layer_metrics[m["name"]]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_declared_metric_is_produced(name):
    declared = json.loads(BENCHMARK_JSON.read_text())
    workload = workloads.WORKLOADS[name](scale=0.1)
    # The timed pass needs 100 ops for its p90; the others take 3.
    doc = run.run_workload(workload, setups=3, timed_ops=100, traced_ops=3)
    # At 1/10 size the slowdown window holds too few queries for the
    # fault-attribution verdict; every other check must pass.
    assert [p for p in doc["problems"] if "fault_attribution" not in p] == []
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert metric["name"] in doc["metrics"]
    assert doc["idle_layers"] == []
    assert doc["digest"]["status"] == "unpinned"
