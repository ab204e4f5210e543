"""Tests for result export and GPU time decomposition."""

import json

import pytest

from repro.core import (
    SpeedupStudy,
    sweep_to_csv,
    sweep_to_records,
)
from repro.gpusim import GpuModel
from repro.hw import GTX_1080_TI, T4
from repro.models import build_model


@pytest.fixture(scope="module")
def sweep():
    models = {n: build_model(n) for n in ("ncf", "rm2")}
    return SpeedupStudy(models=models, batch_sizes=[16, 1024]).run()


class TestSweepExport:
    def test_record_count(self, sweep):
        records = sweep_to_records(sweep)
        assert len(records) == 2 * 4 * 2

    def test_record_fields(self, sweep):
        record = sweep_to_records(sweep)[0]
        for field in (
            "model",
            "platform",
            "batch_size",
            "total_seconds",
            "data_comm_fraction",
            "speedup_over_broadwell",
            "dominant_operator",
        ):
            assert field in record

    def test_csv_parses(self, sweep):
        csv = sweep_to_csv(sweep)
        lines = csv.strip().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 1 + 16
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)

    def test_json_round_trips(self, sweep):
        records = sweep_to_records(sweep)
        parsed = json.loads(json.dumps(records))
        assert len(parsed) == len(records)
        assert parsed[0]["model"] in ("ncf", "rm2")


class TestGpuDecomposition:
    def test_decomposition_sums_to_compute(self):
        gpu = GpuModel(T4)
        profile = gpu.profile_graph(build_model("wnd").build_graph(64))
        decomposition = profile.time_decomposition()
        # launch + binding term per kernel == total op seconds.
        total = sum(decomposition.values())
        assert total == pytest.approx(profile.compute_seconds, rel=1e-9)

    def test_din_launch_heavy_small_batch(self):
        gpu = GpuModel(GTX_1080_TI)
        profile = gpu.profile_graph(build_model("din").build_graph(4))
        decomposition = profile.time_decomposition()
        assert profile.launch_seconds > 0.002  # thousands of launches

    def test_sls_models_memory_heavy_large_batch(self):
        gpu = GpuModel(GTX_1080_TI)
        profile = gpu.profile_graph(build_model("rm2").build_graph(16384))
        decomposition = profile.time_decomposition()
        assert decomposition["memory"] > decomposition["compute"]
