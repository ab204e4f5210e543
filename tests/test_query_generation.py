"""Tests for synthetic workload generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import build_model
from repro.workloads import (
    QueryGenerator,
    UniformIndices,
    ZipfIndices,
    hot_keys,
    hot_mass,
    operator_breakdown_batch_sizes,
    paper_batch_sizes,
)


class TestBatchGrids:
    def test_paper_batch_sizes(self):
        sizes = paper_batch_sizes()
        assert sizes[0] == 1
        assert sizes[-1] == 16384
        assert all(b == 4**i for i, b in enumerate(sizes))

    def test_operator_breakdown_sizes(self):
        assert operator_breakdown_batch_sizes() == [4, 64, 1024, 16384]


class TestDistributions:
    def test_uniform_bounds(self):
        rng = np.random.default_rng(0)
        samples = UniformIndices().sample(rng, 1000, (500,))
        assert samples.min() >= 0
        assert samples.max() < 1000

    def test_zipf_bounds(self):
        rng = np.random.default_rng(0)
        samples = ZipfIndices(alpha=0.8).sample(rng, 1000, (2000,))
        assert samples.min() >= 0
        assert samples.max() < 1000

    def test_zipf_skew(self):
        """Zipf concentrates mass on low ranks; uniform does not."""
        rng = np.random.default_rng(1)
        zipf = ZipfIndices(alpha=1.2).sample(rng, 10_000, (20_000,))
        uniform = UniformIndices().sample(rng, 10_000, (20_000,))
        assert (zipf < 100).mean() > 5 * (uniform < 100).mean()

    def test_zipf_alpha_increases_skew(self):
        rng = np.random.default_rng(2)
        mild = ZipfIndices(alpha=0.5).sample(rng, 10_000, (20_000,))
        heavy = ZipfIndices(alpha=1.5).sample(rng, 10_000, (20_000,))
        assert (heavy < 10).mean() > (mild < 10).mean()

    def test_zipf_huge_table_covers_row_space(self):
        rng = np.random.default_rng(3)
        samples = ZipfIndices(alpha=0.8).sample(rng, 10 * (1 << 20), (5000,))
        assert samples.max() >= 1 << 20  # beyond the truncated support

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            ZipfIndices(alpha=0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_is_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            ZipfIndices(alpha=alpha)

    @pytest.mark.parametrize("alpha", ["1.1", None, True])
    def test_non_number_alpha_is_rejected(self, alpha):
        with pytest.raises(TypeError, match="alpha"):
            ZipfIndices(alpha=alpha)

    def test_expected_locality_ordering(self):
        assert UniformIndices().expected_locality(10**6) == 0.0
        z = ZipfIndices(alpha=0.8)
        assert 0 < z.expected_locality(10**6) <= 0.6
        assert ZipfIndices(alpha=1.6).expected_locality(10**6) > z.expected_locality(
            10**6
        )


class TestQueryGenerator:
    @pytest.mark.parametrize("name", ["ncf", "rm2", "din", "dien"])
    def test_feeds_match_model_inputs(self, name):
        model = build_model(name)
        gen = QueryGenerator(model)
        feeds = gen.generate(8)
        for desc in model.input_descriptions(8):
            assert desc.name in feeds
            assert feeds[desc.name].shape == desc.spec.shape

    def test_index_feeds_in_range(self):
        model = build_model("rm1")
        feeds = QueryGenerator(model).generate(16)
        for desc in model.input_descriptions(16):
            if desc.kind == desc.INDICES:
                assert feeds[desc.name].min() >= 0
                assert feeds[desc.name].max() < desc.rows

    def test_seed_reproducibility(self):
        model = build_model("ncf")
        f1 = QueryGenerator(model, seed=9).generate(4)
        f2 = QueryGenerator(model, seed=9).generate(4)
        for k in f1:
            np.testing.assert_array_equal(f1[k], f2[k])

    def test_different_seeds_differ(self):
        model = build_model("ncf")
        f1 = QueryGenerator(model, seed=1).generate(64)
        f2 = QueryGenerator(model, seed=2).generate(64)
        assert any(not np.array_equal(f1[k], f2[k]) for k in f1)

    def test_stream_yields_distinct_batches(self):
        model = build_model("ncf")
        gen = QueryGenerator(model)
        batches = list(gen.stream(4, 3))
        assert len(batches) == 3
        assert not np.array_equal(
            batches[0]["user_ids"], batches[1]["user_ids"]
        )

    def test_input_bytes(self):
        model = build_model("rm1")
        gen = QueryGenerator(model)
        expected = 16 * 13 * 4 + 8 * 16 * 80 * 8  # dense + 8 index tensors
        assert gen.input_bytes(16) == expected

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            QueryGenerator(build_model("ncf")).generate(0)

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=10)
    def test_any_batch_size_executes(self, batch):
        from repro.graph import execute

        model = build_model("ncf")
        feeds = QueryGenerator(model).generate(batch)
        (out,) = execute(model.build_graph(batch), feeds).values()
        assert out.shape[0] == batch


class TestHotKeys:
    """Satellite: the deterministic hot set matches sampled traces."""

    def test_zipf_hot_keys_match_empirical_frequencies(self):
        rows, k, n = 10_000, 8, 200_000
        dist = ZipfIndices(alpha=1.1)
        rng = np.random.default_rng(2020)
        trace = dist.sample(rng, rows, (n,))
        counts = np.bincount(trace, minlength=rows)
        empirical_order = np.argsort(-counts, kind="stable")
        hot = hot_keys(dist, rows, k)
        # the single hottest row is exact, and the whole predicted hot
        # set sits inside the empirical top set (ordering at the tail
        # of the hot set can wiggle with sampling noise)
        assert hot[0] == empirical_order[0]
        assert set(hot.tolist()) <= set(empirical_order[: 2 * k].tolist())
        # predicted hot mass matches the trace's observed mass
        observed = counts[hot].sum() / n
        assert hot_mass(dist, rows, k) == pytest.approx(observed, abs=0.02)

    def test_zipf_hot_keys_are_rank_prefix(self):
        dist = ZipfIndices(alpha=0.8)
        assert np.array_equal(hot_keys(dist, 1000, 4), np.arange(4))
        # k is clamped to the row count
        assert len(hot_keys(dist, 3, 10)) == 3

    def test_zipf_hot_keys_huge_table_stride_mapping(self):
        rows = 4 * (1 << 20)  # beyond the sampling support cap
        dist = ZipfIndices(alpha=1.1)
        hot = hot_keys(dist, rows, 16)
        stride = rows // (1 << 20)
        assert np.all(hot % stride == 0)
        # empirical check: the hottest sampled row lands in the first
        # rank group, whose representative is hot[0] == 0
        rng = np.random.default_rng(7)
        trace = dist.sample(rng, rows, (100_000,))
        values, counts = np.unique(trace, return_counts=True)
        assert values[np.argmax(counts)] // stride == hot[0] // stride

    def test_hot_mass_monotone_in_k_and_alpha(self):
        dist = ZipfIndices(alpha=1.1)
        masses = [hot_mass(dist, 1 << 20, k) for k in (16, 256, 4096)]
        assert masses == sorted(masses)
        assert hot_mass(ZipfIndices(alpha=1.4), 1 << 20, 1024) > \
            hot_mass(ZipfIndices(alpha=0.8), 1 << 20, 1024)

    def test_uniform_hot_set_is_flat(self):
        dist = UniformIndices()
        assert np.array_equal(hot_keys(dist, 100, 5), np.arange(5))
        assert hot_mass(dist, 100, 5) == pytest.approx(0.05)
        assert hot_mass(dist, 100, 200) == 1.0
