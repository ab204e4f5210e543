"""Tests for the graph-optimization passes and fused operators."""

import hashlib
import json

import numpy as np
import pytest

from repro.graph import (
    GraphBuilder,
    execute,
    fuse_fc_activations,
    group_sls_into_concat,
    optimize,
)
from repro.hw import BROADWELL, T4
from repro.gpusim import GpuModel
from repro.models import MODEL_ORDER, build_all_models
from repro.ops import (
    FC,
    Concat,
    EmbeddingTable,
    FusedFC,
    GroupedSparseLengthsSum,
    OpError,
    Relu,
    Sigmoid,
    SparseLengthsSum,
)
from repro.graph.tensor import TensorSpec
from repro.uarch import CpuModel
from repro.workloads import QueryGenerator


class TestFusedOps:
    def test_fused_fc_matches_unfused(self):
        fc = FC(8, 4, "f")
        fused = FusedFC(fc, Relu())
        x = np.random.default_rng(0).standard_normal((3, 8)).astype(np.float32)
        np.testing.assert_allclose(
            fused.compute([x]), Relu().compute([fc.compute([x])]), rtol=1e-6
        )

    def test_fused_fc_single_kernel(self):
        fused = FusedFC(FC(64, 64, "f"), Sigmoid())
        w = fused.workload([TensorSpec((16, 64))])
        assert w.kernel_launches == 1

    def test_fused_fc_rejects_non_activation(self):
        with pytest.raises(OpError):
            FusedFC(FC(8, 4, "f"), Concat(axis=1))

    def test_grouped_sls_matches_concat_of_sls(self):
        tables = [EmbeddingTable(100, 8, ("g", i)) for i in range(3)]
        grouped = GroupedSparseLengthsSum(tables)
        rng = np.random.default_rng(1)
        indices = [rng.integers(0, 100, (4, 2)) for _ in range(3)]
        expected = np.concatenate(
            [SparseLengthsSum(t).compute([i]) for t, i in zip(tables, indices)],
            axis=1,
        )
        np.testing.assert_allclose(grouped.compute(indices), expected, rtol=1e-6)

    def test_grouped_sls_single_kernel_and_region(self):
        tables = [EmbeddingTable(100, 8, ("g", i)) for i in range(5)]
        grouped = GroupedSparseLengthsSum(tables)
        specs = [TensorSpec((4, 2), "int64")] * 5
        w = grouped.workload(specs)
        assert w.kernel_launches == 1
        assert w.unique_code_blocks == 1

    def test_grouped_sls_requires_uniform_dim(self):
        with pytest.raises(OpError):
            GroupedSparseLengthsSum(
                [EmbeddingTable(10, 4, "a"), EmbeddingTable(10, 8, "b")]
            )


class TestPassMechanics:
    def _fc_chain(self):
        b = GraphBuilder("chain")
        x = b.input("x", (4, 8))
        h = b.apply(FC(8, 16, "a"), x)
        h = b.apply(Relu(), h)
        out = b.apply(FC(16, 2, "b"), h)
        b.output(out)
        return b.build(), x

    def test_fc_fusion_reduces_nodes(self):
        graph, _ = self._fc_chain()
        fused = fuse_fc_activations(graph)
        assert len(fused) == len(graph) - 1
        assert "FusedFC" in fused.kinds()

    def test_fusion_skips_multi_consumer_fc(self):
        b = GraphBuilder("shared")
        x = b.input("x", (4, 8))
        h = b.apply(FC(8, 8, "a"), x, name="fc")
        r = b.apply(Relu(), h, name="relu")
        c = b.apply(Concat(axis=1), [h, r], name="cat")  # fc used twice
        b.output(c)
        graph = b.build()
        fused = fuse_fc_activations(graph)
        assert "FusedFC" not in fused.kinds()

    def test_fusion_skips_output_fc(self):
        b = GraphBuilder("out")
        x = b.input("x", (4, 8))
        h = b.apply(FC(8, 8, "a"), x, name="fc")
        r = b.apply(Relu(), h, name="relu")
        b.output(h, r)  # FC result is itself an output
        graph = b.build()
        assert "FusedFC" not in fuse_fc_activations(graph).kinds()

    def test_sls_grouping_removes_concat(self):
        b = GraphBuilder("sls")
        tables = [EmbeddingTable(50, 4, ("t", i)) for i in range(3)]
        idx = [b.input(f"i{k}", (2, 2), "int64") for k in range(3)]
        pooled = [b.apply(SparseLengthsSum(t), i) for t, i in zip(tables, idx)]
        cat = b.apply(Concat(axis=1), pooled)
        b.output(cat)
        graph = b.build()
        grouped = group_sls_into_concat(graph)
        assert "GroupedSparseLengthsSum" in grouped.kinds()
        assert "Concat" not in grouped.kinds()
        assert len(grouped) == 1

    def test_sls_grouping_keeps_concat_with_extra_inputs(self):
        b = GraphBuilder("mixed")
        tables = [EmbeddingTable(50, 4, ("t", i)) for i in range(2)]
        idx = [b.input(f"i{k}", (2, 2), "int64") for k in range(2)]
        dense = b.input("dense", (2, 3))
        pooled = [b.apply(SparseLengthsSum(t), i) for t, i in zip(tables, idx)]
        cat = b.apply(Concat(axis=1), pooled + [dense])
        b.output(cat)
        graph = b.build()
        grouped = group_sls_into_concat(graph)
        assert "GroupedSparseLengthsSum" in grouped.kinds()
        assert "Concat" in grouped.kinds()
        # Output shape unchanged.
        assert grouped.spec_of(grouped.output_names[0]).shape == (2, 11)

    def test_no_grouping_for_single_sls(self):
        b = GraphBuilder("single")
        t = EmbeddingTable(50, 4, "t")
        i = b.input("i", (2, 2), "int64")
        p = b.apply(SparseLengthsSum(t), i)
        d = b.input("dense", (2, 3))
        cat = b.apply(Concat(axis=1), [p, d])
        b.output(cat)
        graph = b.build()
        assert "GroupedSparseLengthsSum" not in group_sls_into_concat(graph).kinds()


#: sha256 of each optimized zoo graph's (node name, kind, inputs, output
#: shape, output dtype) list, as JSON.
OPTIMIZED_GRAPH_PINS = {
    ("ncf", 1): "a326a2c88801bb53fe6d2cb56f728f344b02cb1df72211110cc05e6ec31fe38d",
    ("ncf", 64): "b1c8a409b1da20d53c1622dc59ca91a93bb8ecde143be9a5c944619324fd9860",
    ("ncf", 16384): "59cf4a024719d04f55053d00102f4579e0622ba5927775f8ade284a489bc6528",
    ("rm1", 1): "412efd3c11c9baf6e3b7c9d6873cbffb25df6a2dcf97f8418af340b4b25a48fc",
    ("rm1", 64): "9ffb6edc8016b1429980b5b8e18d77b6020abb1f51e04ca269cb59a37a89ed97",
    ("rm1", 16384): "bf820412be505cbd168d39880e9436b9e832f6f315f6cb3a6bb72c4399504866",
    ("rm2", 1): "d4fa6ed08002baac35d8a619f69dd719b0018fee1bdc050ef2f17e6ec9532898",
    ("rm2", 64): "bde22a824cdc9e5a66ffd5bc1c7b0d894ca469dab81205906f4435f4932bac7d",
    ("rm2", 16384): "be5aa3d59f759e51d983b6f55b9d574b02b6c6dd45eb5ebacd13391aa554abca",
    ("rm3", 1): "867c38aca4c30a58b70c70a7beb87e5f9c1cdb2ec6ff2d3b27cbd8fc812d9559",
    ("rm3", 64): "899334a2de2f3dd9bb6bb428c9b010a06c5ad0ce601878197886b319c2594206",
    ("rm3", 16384): "ee4f694ee7a35b8e95400ff72dbeacb52ba32bf8a9bace0d334742b6533c057f",
    ("wnd", 1): "18d437d414b948fb09ae29abe633107763a58c051a368c5135eb6180b5bab3e5",
    ("wnd", 64): "9604e3c2608e18c51857f9f854b8736779e5dd082387c53801f4baa31526b6a1",
    ("wnd", 16384): "de037accb3aa244c269038b2cb44974acdad0b2c4014057761a97a7a5b46755d",
    ("mtwnd", 1): "580dce401f5bcb0b4e3deb79c72fe6a6c71b61e447c74f973ae9651be98ba481",
    ("mtwnd", 64): "7d7bb6e1202026e8df55badaf7cfca83208174d9530a8048bedf760fa98cf101",
    ("mtwnd", 16384): "8fc19b935da61fec3110962a042430228f05adf53dd88d4afc2b387becd1b021",
    ("din", 1): "419eaf4dd3a876571cf09bf254a87056641dae7665c7d88304581f1929d2e1af",
    ("din", 64): "6ce543e4d89d7b06c5cf6e01c45ffc5a1df16d86e7ed7efe0871f5259d5f0664",
    ("din", 16384): "0ded2f8936cac2ba89e9e5df584a05c639d0777a1cea45c4ec481a400ae2fbfa",
    ("dien", 1): "1db5cb3763bf4d3c7ea73b6d68b9bd05da09b7fc7e9e39a0ca81ec0627ecf1e7",
    ("dien", 64): "f3ada8ea0f1685f67fa3f61a3f3cd51d9bb9d71942df45e54aa6d4072dc09d13",
    ("dien", 16384): "43721f3e56026ce7374cf98095dec46bc4d456f0b2680b6cd32ad09fde6a05ba",
}


@pytest.mark.parametrize("name,batch", sorted(OPTIMIZED_GRAPH_PINS))
def test_optimized_graph_pins(name, batch):
    graph = optimize(build_all_models()[name].build_graph(batch))
    rows = [
        [n.name, n.kind, list(n.inputs), list(n.output_spec.shape),
         n.output_spec.dtype]
        for n in graph.nodes
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == OPTIMIZED_GRAPH_PINS[name, batch]


class TestSemanticsPreserved:
    @pytest.mark.parametrize("name", MODEL_ORDER)
    def test_optimized_graph_matches(self, name):
        model = build_all_models()[name]
        graph = model.build_graph(8)
        optimized = optimize(graph)
        feeds = QueryGenerator(model).generate(8)
        (base,) = execute(graph, feeds).values()
        (opt,) = execute(optimized, feeds).values()
        np.testing.assert_allclose(base, opt, rtol=1e-5, atol=1e-6)

    def test_optimization_never_slower_on_cpu(self):
        models = build_all_models()
        cpu = CpuModel(BROADWELL)
        for name in MODEL_ORDER:
            graph = models[name].build_graph(16)
            base = cpu.profile_graph(graph).compute_seconds
            opt = cpu.profile_graph(optimize(graph)).compute_seconds
            assert opt <= base * 1.02

    def test_wnd_gpu_small_batch_gains_most(self):
        """Horizontal SLS fusion removes 26 kernel launches + gather
        latencies — the exact overhead that made WnD SLS-bound at small
        batch on GPUs (Fig 6)."""
        model = build_all_models()["wnd"]
        graph = model.build_graph(16)
        gpu = GpuModel(T4)
        base = gpu.profile_graph(graph).total_seconds
        opt = gpu.profile_graph(optimize(graph)).total_seconds
        assert opt < 0.7 * base


class TestBrokenPassCaught:
    """optimize() re-verifies its final graph: a pass that corrupts specs,
    drops outputs, or leaves dangling edges is rejected, not deployed."""

    @staticmethod
    def _graph():
        b = GraphBuilder("victim")
        x = b.input("x", (8, 16))
        h = b.apply(FC(16, 8, "fc0"), x)
        b.output(b.apply(Relu(), h))
        return b.build()

    def test_stale_spec_pass_raises(self):
        from repro.analysis import GraphVerifyError

        def corrupt_specs(graph):
            import dataclasses

            rebuilt = graph.__class__(graph.name)
            for name, spec in graph.input_specs.items():
                rebuilt.add_input(name, spec)
            for node in graph.nodes:
                bad = dataclasses.replace(
                    node, output_spec=TensorSpec((8, 99))
                )
                rebuilt._nodes[node.name] = bad
                rebuilt._order.append(node.name)
            for out in graph.output_names:
                rebuilt.mark_output(out)
            return rebuilt

        graph = self._graph()
        with pytest.raises(GraphVerifyError) as exc:
            optimize(graph, passes=[corrupt_specs])
        assert exc.value.report.by_rule("GV104")

    def test_output_dropping_pass_raises(self):
        from repro.analysis import GraphVerifyError

        def drop_outputs(graph):
            pruned = graph.__class__(graph.name)
            for name, spec in graph.input_specs.items():
                pruned.add_input(name, spec)
            for node in graph.nodes:
                pruned._nodes[node.name] = node
                pruned._order.append(node.name)
            return pruned  # never marks outputs

        with pytest.raises(GraphVerifyError):
            optimize(self._graph(), passes=[drop_outputs])

    def test_interface_changing_pass_raises(self):
        from repro.analysis import GraphVerifyError

        def shrink_output(graph):
            b = GraphBuilder(graph.name)
            x = b.input("x", (8, 16))
            b.output(b.apply(FC(16, 4, "fc0"), x))  # 8 -> 4 wide
            return b.build()

        with pytest.raises(GraphVerifyError) as exc:
            optimize(self._graph(), passes=[shrink_output])
        assert exc.value.report.by_rule("GV122")

    def test_identity_pass_ok(self):
        graph = self._graph()
        assert optimize(graph, passes=[lambda g: g]) is graph

    def test_verify_false_skips_checks(self):
        def drop_outputs(graph):
            pruned = graph.__class__(graph.name)
            for name, spec in graph.input_specs.items():
                pruned.add_input(name, spec)
            for node in graph.nodes:
                pruned._nodes[node.name] = node
                pruned._order.append(node.name)
            return pruned

        broken = optimize(self._graph(), passes=[drop_outputs], verify=False)
        assert broken.output_names == []
