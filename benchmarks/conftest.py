"""Shared fixtures for the figure-regeneration benchmark harness.

Heavy sweeps run once per session; each bench target formats and
benchmarks its own figure. Every regenerated table is also written to
``benchmarks/output/`` so EXPERIMENTS.md can reference stable artifacts.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core import SpeedupStudy, collect_suite
from repro.models import build_all_models
from repro.workloads import paper_batch_sizes

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def models():
    return build_all_models()


@pytest.fixture(scope="session")
def full_sweep(models):
    """8 models x {1..16384} x 4 platforms end-to-end profiles."""
    return SpeedupStudy(models=models, batch_sizes=paper_batch_sizes()).run()


@pytest.fixture(scope="session")
def suite_reports(models):
    """Microarch reports for all models on both CPUs at batch 16."""
    return collect_suite(batch_size=16, models=models)


@pytest.fixture(scope="session")
def write_output():
    """Writer: persist a regenerated figure/table to benchmarks/output."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _write(name: str, text: str) -> None:
        (OUTPUT_DIR / f"{name}.txt").write_text(text)
        print(f"\n{text}")

    return _write
