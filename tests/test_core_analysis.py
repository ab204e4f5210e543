"""Tests for the characterization core: speedup, features, regression, report."""

import numpy as np
import pytest

from repro.core import (
    BASELINE_PLATFORM,
    FEATURE_NAMES,
    SpeedupStudy,
    build_feature_matrix,
    characterize,
    collect_report,
    collect_suite,
    fit_bottleneck_regression,
    fit_linear,
    format_seconds,
    render_grid,
    render_table,
    to_csv,
)
from repro.models import build_all_models, build_model


@pytest.fixture(scope="module")
def small_sweep():
    models = {n: build_model(n) for n in ("ncf", "rm2", "din")}
    study = SpeedupStudy(models=models, batch_sizes=[16, 1024])
    return study.run()


class TestSpeedupStudy:
    def test_baseline_speedup_is_one(self, small_sweep):
        for model in small_sweep.model_names:
            for batch in small_sweep.batch_sizes:
                assert small_sweep.speedup(model, BASELINE_PLATFORM, batch) == 1.0

    def test_all_cells_present(self, small_sweep):
        assert len(small_sweep.profiles) == 3 * 4 * 2

    def test_speedup_series_shape(self, small_sweep):
        series = small_sweep.speedup_series("rm2", "t4")
        assert [b for b, _ in series] == [16, 1024]
        assert all(s > 0 for _, s in series)

    def test_optimal_grid_covers_all_cells(self, small_sweep):
        cells = SpeedupStudy.optimal_platform_grid(small_sweep)
        assert len(cells) == 3 * 2
        for cell in cells:
            # Optimum is at least as fast as the baseline.
            assert cell.speedup >= 1.0
            assert cell.platform in small_sweep.platform_names

    def test_baseline_required(self):
        with pytest.raises(ValueError):
            SpeedupStudy(platform_names=["t4"])

    @pytest.mark.parametrize(
        "batches,error",
        [([], ValueError), ([0], ValueError), ([-4], ValueError),
         ([16, 2.5], TypeError),
         ([True], TypeError), (["64"], TypeError)],
        ids=repr,
    )
    def test_bad_batch_sizes_rejected_at_construction(self, batches, error):
        with pytest.raises(error, match="batch_sizes"):
            SpeedupStudy(batch_sizes=batches)

    def test_numpy_batch_sizes_accepted(self):
        study = SpeedupStudy(batch_sizes=np.array([1, 16]))
        assert study.batch_sizes == [1, 16]

    def test_data_comm_fraction_accessor(self, small_sweep):
        frac = small_sweep.data_comm_fraction("rm2", "gtx1080ti", 1024)
        assert 0 < frac < 1


class TestFeatureMatrix:
    def test_shape(self):
        m = build_feature_matrix([1, 64], models=build_all_models())
        assert m.rows.shape == (16, len(FEATURE_NAMES))
        assert len(m.labels) == 16

    def test_z_normalized(self):
        m = build_feature_matrix([1, 16, 256])
        np.testing.assert_allclose(m.rows.mean(axis=0), 0.0, atol=1e-9)
        stds = m.rows.std(axis=0)
        # Constant columns collapse to zero; everything else is unit.
        assert np.all((np.abs(stds - 1.0) < 1e-9) | (stds < 1e-9))

    def test_batch_feature_varies(self):
        m = build_feature_matrix([1, 4096])
        col = m.column("log2_batch_size")
        assert col.std() > 0

    def test_raw_rows_kept(self):
        m = build_feature_matrix([16])
        idx = m.feature_names.index("num_tables")
        raw_tables = dict(zip([l[0] for l in m.labels], m.raw_rows[:, idx]))
        assert raw_tables["ncf"] == 4.0
        assert raw_tables["rm2"] == 32.0


class TestRegression:
    def test_fit_linear_recovers_exact_model(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 3))
        y = 2.0 * X[:, 0] - 1.0 * X[:, 1] + 0.5 + 0 * X[:, 2]
        weights, intercept, r2 = fit_linear(X, y)
        np.testing.assert_allclose(weights, [2.0, -1.0, 0.0], atol=1e-8)
        assert intercept == pytest.approx(0.5)
        assert r2 == pytest.approx(1.0)

    def test_fit_linear_r2_degrades_with_noise(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((300, 2))
        clean = X[:, 0]
        noisy = clean + 3 * rng.standard_normal(300)
        _, _, r2_clean = fit_linear(X, clean)
        _, _, r2_noisy = fit_linear(X, noisy)
        assert r2_clean > r2_noisy

    def test_bottleneck_regression_interface(self):
        m = build_feature_matrix([16, 1024])
        rng = np.random.default_rng(2)
        targets = {"retiring": rng.random(m.num_samples)}
        results = fit_bottleneck_regression(m, targets)
        r = results["retiring"]
        assert set(r.weights) == set(FEATURE_NAMES)
        assert 0 <= r.weight_concentration() <= 1
        assert r.dominant_feature() in FEATURE_NAMES


class TestCollectReports:
    def test_collect_report_fields(self):
        report = collect_report(build_model("rm2"), "broadwell", 16)
        assert report.platform == "Broadwell"
        report.topdown.validate()
        assert report.i_mpki >= 0
        assert 0 <= report.avx_fraction <= 1
        fu = report.fu_usage
        assert sum(fu.values()) == pytest.approx(1.0, abs=1e-6)

    def test_collect_report_rejects_gpu(self):
        with pytest.raises(ValueError):
            collect_report(build_model("rm2"), "t4", 16)

    def test_collect_suite_covers_both_cpus(self):
        models = {"ncf": build_model("ncf")}
        suite = collect_suite(batch_size=16, models=models)
        assert set(suite) == {"broadwell", "cascade_lake"}
        assert set(suite["broadwell"]) == {"ncf"}


class TestCharacterize:
    def test_cpu_report_complete(self):
        report = characterize("rm2", "bdw", 16)
        assert report.microarch is not None
        lines = report.summary_lines()
        assert any("topdown" in l for l in lines)
        assert report.total_seconds > 0

    def test_gpu_report_has_no_microarch(self):
        report = characterize("wnd", "t4", 256)
        assert report.microarch is None
        assert report.operator_breakdown.dominant

    def test_accepts_model_instance(self):
        report = characterize(build_model("ncf"), "clx", 4)
        assert report.profile.model_name == "ncf"


class TestReportRendering:
    def test_render_table_aligned(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["x", 0.125]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.500" in text
        assert "0.125" in text

    def test_render_grid(self):
        text = render_grid(
            ["r1"], ["c1", "c2"], {("r1", "c1"): "A", ("r1", "c2"): "B"}
        )
        assert "A" in text and "B" in text

    def test_to_csv(self):
        csv = to_csv(["a", "b"], [[1, 2], [3, 4]])
        assert csv.splitlines() == ["a,b", "1,2", "3,4"]

    def test_format_seconds_units(self):
        assert format_seconds(2.0) == "2.00s"
        assert format_seconds(0.0025) == "2.50ms"
        assert format_seconds(2.5e-5) == "25.0us"
