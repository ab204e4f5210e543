"""Smoke tests: every example script runs end-to-end.

Each example is executed in-process (imported as a module and driven
through its ``main``) so the suite catches API drift immediately.
"""

import hashlib
import pathlib
import runpy
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"


def _run(script: str, argv):
    old_argv = sys.argv
    sys.argv = [script] + argv
    try:
        runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_examples_directory_complete(self):
        scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert {
            "quickstart.py",
            "heterogeneous_scheduling.py",
            "bottleneck_analysis.py",
            "custom_model.py",
            "capacity_planning.py",
            "resilient_serving.py",
        } <= scripts

    def test_quickstart(self, capsys):
        _run("quickstart.py", ["ncf", "broadwell", "8"])
        out = capsys.readouterr().out
        assert "cross-stack characterization" in out
        assert "operator breakdown" in out

    def test_quickstart_gpu(self, capsys):
        _run("quickstart.py", ["wnd", "t4", "64"])
        out = capsys.readouterr().out
        assert "dominant operator" in out

    def test_bottleneck_analysis(self, capsys):
        _run("bottleneck_analysis.py", ["rm2", "16"])
        out = capsys.readouterr().out
        assert "TopDown characterization" in out
        assert "verdict" in out

    def test_custom_model(self, capsys):
        _run("custom_model.py", [])
        out = capsys.readouterr().out
        assert "twotower" in out
        assert "speedup over Broadwell" in out

    def test_heterogeneous_scheduling(self, capsys):
        _run("heterogeneous_scheduling.py", [])
        out = capsys.readouterr().out
        assert "cross-stack routing" in out
        assert "No single platform wins" in out

    def test_capacity_planning(self, capsys):
        _run("capacity_planning.py", ["rm3", "20"])
        out = capsys.readouterr().out
        assert "Capacity planning" in out
        assert "verdict" in out

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["rm3", "20"],
                "3b4cc7680316870086ee58638bbf22ca"
                "5f8e481ba03eca7c6c9a70f6580f7f3d",
            ),
            (
                ["rm1", "2"],
                "0631d913225ea37bf444937b66211196"
                "d8a64498f210efeda26a4ac5bea25d26",
            ),
        ],
        ids=["rm3 20", "rm1 2"],
    )
    def test_capacity_planning_stdout_pin(self, capsys, argv, digest):
        """The capacity search's answers and the ``run`` after it, which
        reads the scheduler's RNG where the search left it."""
        _run("capacity_planning.py", argv)
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out

    def test_resilient_serving(self, capsys):
        _run("resilient_serving.py", ["800", "7"])
        out = capsys.readouterr().out
        assert "Resilient serving under a GPU slowdown" in out
        assert "faults, no policy" in out
        # The acceptance scenario: at least one policy measurably cuts p99.
        assert "cut p99 by" in out
        assert "deterministic injection" in out

    def test_optimize_and_offload(self, capsys):
        _run("optimize_and_offload.py", ["rm2", "64"])
        out = capsys.readouterr().out
        assert "What-if interventions" in out
        assert "near-memory" in out
