"""Tests for the graph IR: wiring, validation, execution."""

import numpy as np
import pytest

from repro import telemetry
from repro.graph import Graph, GraphBuilder, GraphError, TensorSpec, execute
from repro.ops import FC, Concat, Relu


def small_graph():
    b = GraphBuilder("t")
    x = b.input("x", (4, 8))
    h = b.apply(FC(8, 16, "g1"), x, name="fc1")
    h = b.apply(Relu(), h, name="relu1")
    out = b.apply(FC(16, 2, "g2"), h, name="fc2")
    b.output(out)
    return b.build(), out


class TestGraphConstruction:
    def test_duplicate_input_name_rejected(self):
        g = Graph()
        g.add_input("x", TensorSpec((2, 2)))
        with pytest.raises(GraphError):
            g.add_input("x", TensorSpec((2, 2)))

    def test_duplicate_node_name_rejected(self):
        g = Graph()
        g.add_input("x", TensorSpec((2, 8)))
        g.add_node("n", FC(8, 4, "d"), ["x"])
        with pytest.raises(GraphError):
            g.add_node("n", FC(8, 4, "d"), ["x"])

    def test_unknown_input_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_node("n", FC(8, 4, "d"), ["missing"])

    def test_shape_inference_runs_at_wiring(self):
        g = Graph()
        g.add_input("x", TensorSpec((2, 8)))
        name = g.add_node("n", FC(8, 4, "d"), ["x"])
        assert g.spec_of(name).shape == (2, 4)

    def test_bad_shapes_rejected_at_wiring(self):
        g = Graph()
        g.add_input("x", TensorSpec((2, 7)))
        with pytest.raises(Exception):
            g.add_node("n", FC(8, 4, "d"), ["x"])

    def test_output_must_exist(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.mark_output("nope")

    def test_validate_requires_outputs(self):
        g = Graph()
        g.add_input("x", TensorSpec((2, 8)))
        g.add_node("n", FC(8, 4, "d"), ["x"])
        with pytest.raises(GraphError):
            g.validate()

    def test_kinds_in_order(self):
        g, _ = small_graph()
        assert g.kinds() == ["FC", "Relu", "FC"]

    def test_parameter_bytes_positive(self):
        g, _ = small_graph()
        assert g.parameter_bytes == (8 * 16 + 16 + 16 * 2 + 2) * 4


class TestExecution:
    def test_execute_shapes_and_determinism(self):
        g, out = small_graph()
        x = np.random.default_rng(0).standard_normal((4, 8)).astype(np.float32)
        r1 = execute(g, {"x": x})
        r2 = execute(g, {"x": x})
        assert r1[out].shape == (4, 2)
        np.testing.assert_array_equal(r1[out], r2[out])

    def test_missing_feed_rejected(self):
        g, _ = small_graph()
        with pytest.raises(GraphError):
            execute(g, {})

    def test_wrong_feed_shape_rejected(self):
        g, _ = small_graph()
        with pytest.raises(GraphError):
            execute(g, {"x": np.zeros((4, 9), dtype=np.float32)})

    def test_execute_matches_manual_math(self):
        g, out = small_graph()
        x = np.random.default_rng(1).standard_normal((4, 8)).astype(np.float32)
        fc1 = g.node("fc1").op
        fc2 = g.node("fc2").op
        expected = np.maximum(x @ fc1.weight.T + fc1.bias, 0) @ fc2.weight.T + fc2.bias
        result = execute(g, {"x": x})[out]
        np.testing.assert_allclose(result, expected, rtol=1e-5)

    def test_peak_live_bytes_gauge(self):
        # Hand-computed on small_graph (float32, batch 4): x is 128 B,
        # fc1 and relu1 256 B each, fc2 32 B. relu1 runs while fc1 is
        # still live (fc1 is freed after its last consumer), so the
        # peak is fc1 + relu1 = 512 B; x is already freed by then.
        g, _ = small_graph()
        with telemetry.capture() as (_, registry):
            execute(g, {"x": np.zeros((4, 8), dtype=np.float32)})
        observed = [
            m["value"]
            for m in registry.snapshot()
            if m["name"] == "executor.peak_live_bytes"
        ]
        assert observed == [512]

    def test_multi_output_graph(self):
        b = GraphBuilder("multi")
        x = b.input("x", (2, 4))
        a = b.apply(FC(4, 4, "a"), x, name="a")
        c = b.apply(Concat(axis=1), [x, a], name="c")
        b.output(a, c)
        g = b.build()
        result = execute(g, {"x": np.ones((2, 4), dtype=np.float32)})
        assert set(result) == {"a", "c"}
        assert result["c"].shape == (2, 8)

    def test_builder_generates_unique_names(self):
        b = GraphBuilder("names")
        x = b.input("x", (2, 4))
        n1 = b.apply(FC(4, 4, "u1"), x)
        n2 = b.apply(FC(4, 4, "u2"), n1)
        assert n1 != n2
