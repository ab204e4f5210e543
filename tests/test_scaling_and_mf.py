"""Tests for batch-scaling analysis."""

import pytest

from repro.core import (
    SpeedupStudy,
    crossover_batch,
    crossover_table,
    fit_scaling,
)
from repro.models import build_model


@pytest.fixture(scope="module")
def sweep():
    models = {n: build_model(n) for n in ("rm2", "rm3", "din")}
    return SpeedupStudy(
        models=models, batch_sizes=[1, 16, 64, 256, 1024, 4096, 16384]
    ).run()


class TestScalingFit:
    def test_exponent_near_one_at_scale(self, sweep):
        fit = fit_scaling(sweep, "rm2", "broadwell")
        assert 0.6 < fit.exponent < 1.1
        assert fit.r_squared > 0.9

    def test_gpu_more_sublinear_than_cpu(self, sweep):
        """GPU latency amortizes launch/copy overheads with batch."""
        cpu = fit_scaling(sweep, "rm3", "broadwell")
        gpu = fit_scaling(sweep, "rm3", "t4")
        assert gpu.exponent < cpu.exponent
        assert gpu.amortizes_overhead

    def test_coefficient_positive(self, sweep):
        fit = fit_scaling(sweep, "din", "t4")
        assert fit.coefficient > 0


class TestCrossover:
    def test_rm3_crossover_early(self, sweep):
        """The Fig 5 boundary: the GPU overtakes RM3 early (the paper's
        2-4x small-batch regime for the FC-heavy row)."""
        cross = crossover_batch(sweep, "rm3", "t4")
        assert cross is not None
        assert cross < 512

    def test_din_crossover_later_than_rm3(self, sweep):
        rm3 = crossover_batch(sweep, "rm3", "t4")
        din = crossover_batch(sweep, "din", "t4")
        assert din is not None and rm3 is not None
        assert din > rm3

    def test_cascade_lake_always_wins_means_min_batch(self, sweep):
        cross = crossover_batch(sweep, "rm2", "cascade_lake")
        assert cross == 1.0  # CLX beats BDW from batch 1

    def test_never_winning_platform_returns_none(self, sweep):
        # Broadwell never overtakes Cascade Lake.
        assert crossover_batch(sweep, "rm2", "broadwell", "cascade_lake") is None

    def test_crossover_table_covers_models(self, sweep):
        table = crossover_table(sweep)
        assert set(table) == {"rm2", "rm3", "din"}
