"""Reach report: the ``src/repro`` functions that no user path calls.

Runs each user path below in a fresh interpreter under a
``sys.setprofile`` / ``threading.setprofile`` hook that records every
code object entered, then lists the ``src/repro`` functions (found with
``ast``) that none of them entered, with per-module and total line
counts. A nested function is listed but its lines count only through
its outermost unreached enclosing function. Exits non-zero if a user
path fails.

    python ci/reach.py

The user paths are the ``repro`` and ``bench_selfspeed.py`` commands
of ``.github/workflows/ci.yml`` (a new smoke step there belongs here
too), the other ``repro`` subcommands, the examples with their README
arguments and the figure benchmarks.
"""

from __future__ import annotations

import ast
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

SLOWDOWN = "--model rm1 --platform t4 --scenario slowdown --seed 2020 --slowdown-multiplier 5.0"
EXPLAIN = f"explain {SLOWDOWN} --queries 1200"
BIG = f"explain {SLOWDOWN} --queries 12000"
MON = "monitor --model rm1 --platform t4"
SHARD = "shard --model rm2 --platform broadwell --seed 2020 --expect-locality-win"
REPRO = [
    # .github/workflows/ci.yml, in step order
    "lint --strict src tests",
    "verify --batches 1 64 512",
    "fuzz --budget 60 --seed 2020 --corpus-dir {tmp}/fuzz-corpus",
    "resilience --model rm1 --queries 300 --seed 7 --scenario mixed",
    "resilience --model rm1 --queries 300 --seed 7 --scenario mixed"
    " --trace {tmp}/res-matrix.trace.json --record-dir {tmp}/res-ledger",
    f"monitor {SLOWDOWN} --queries 1200 --rules ci/burnrate.toml"
    " --report {tmp}/monitor-dashboard.html --expect-fault-alert",
    "monitor --model rm2 --platform broadwell --scenario shard_slowdown --queries 600"
    " --rules ci/burnrate.toml --expect-fault-alert",
    f"{MON} --fallback broadwell --scenario crash --queries 1200 --rules ci/burnrate.toml --format json",
    f"{MON} --queries 600 --record-dir {{tmp}}/mon-ledger",
    "report {tmp}/mon-ledger -o {tmp}/mon.md",
    f"{MON} --queries 20000 --window-ms 1000 --record-dir {{tmp}}/mon-cap",
    "report {tmp}/mon-cap -o {tmp}/mon-cap.md",
    "trace --resilience --model rm1 --queries 200 -o {tmp}/res.trace.json",
    "trace --scheduler --model rm1 --queries 200 -o {tmp}/sched.trace.json",
    "trace --model rm1 --queries 2000 -o {tmp}/plain.trace.json",
    "metrics --model rm1 --queries 2000",
    f"{EXPLAIN} --what-if all --report {{tmp}}/explain-report.html --expect-fault-attribution",
    f"{EXPLAIN} --report {{tmp}}/explain.md",
    f"{EXPLAIN} --record-dir {{tmp}}/explain-ledger",
    "explain --model rm2 --platform broadwell --scenario shard_slowdown --queries 600 --seed 2020"
    " --what-if all --trace {tmp}/shard-explain.trace.json",
    "explain --model rm1 --platform t4 --scenario mixed --queries 12000 --seed 2020 --what-if all"
    " --format json",
    f"{BIG} --format json --expect-fault-attribution",
    f"{BIG} --trace {{tmp}}/explain-12k.trace.json",
    f"{SHARD} --scenario shard_slowdown --record-dir {{tmp}}/shard-ledger --split",
    "diff {tmp}/shard-ledger --against baselines/shard --fail-on-regression",
    f"{SHARD} --scenario shard_crash",
    f"{SHARD} --scenario shard_network",
    "sweep --record-dir {tmp}/sweep-ledger",
    "record --platforms broadwell cascade_lake --batch-size 64 --queries 300 --seed 2020 --out {tmp}/run-ledger",
    "diff {tmp}/run-ledger --against baselines --fail-on-regression",
    "check --rules ci/slo.toml {tmp}/run-ledger",
    # the subcommands no CI step runs
    "models", "platforms", "characterize rm2", "sweep", "optimal", "topdown", "breakdown rm2", "claims",
]
PATHS = [("-m", "repro " + cmd) for cmd in REPRO] + [
    ("-c", "from repro.telemetry import load_chrome_trace; load_chrome_trace('{tmp}/explain-12k.trace.json')"),
    ("script", "benchmarks/bench_selfspeed.py --smoke --check -o {tmp}/bench_sweep_smoke.json"),
    ("script", "examples/quickstart.py rm2 broadwell 16"),
    ("script", "examples/heterogeneous_scheduling.py"),
    ("script", "examples/bottleneck_analysis.py din 16"),
    ("script", "examples/custom_model.py"),
    ("script", "examples/capacity_planning.py rm3 20"),
    ("script", "examples/optimize_and_offload.py rm2"),
    ("script", "examples/resilient_serving.py"),
    # test_selfspeed_smoke rewrites a committed file with timings
    ("pytest", "benchmarks -q --benchmark-disable --ignore=benchmarks/stack"
     " --deselect benchmarks/bench_selfspeed.py::test_selfspeed_smoke"),
]


def record(out: str, kind: str, arg: str) -> None:
    """Child mode: run one user path and write the code it entered."""
    seen = set()

    def hook(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    threading.setprofile(hook)
    code = 0
    try:
        if kind == "-c":
            exec(compile(arg, "<string>", "exec"), {"__name__": "__main__"})
        elif kind == "pytest":
            import pytest

            code = pytest.main(arg.split())
        else:
            sys.argv = arg.split()
            if kind == "-m":
                runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
            else:
                sys.path.insert(0, str(Path(sys.argv[0]).resolve().parent))
                runpy.run_path(sys.argv[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    with open(out, "w") as fh:
        for c in seen:
            fh.write(f"{os.path.abspath(c.co_filename)}\t{c.co_firstlineno}\n")
    sys.exit(code)


def functions():
    """Yield (path, first line, last line, qualified name) per function."""
    for path in sorted(SRC.rglob("*.py")):
        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # co_firstlineno is the first decorator's line
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield path, first, child.end_lineno, prefix + child.name
                    yield from walk(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    yield from walk(child, prefix + child.name + ".")
                else:
                    yield from walk(child, prefix)

        yield from walk(ast.parse(path.read_text(), str(path)), "")


def main() -> int:
    reached, failed = set(), []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        for kind, arg in PATHS:
            arg = arg.format(tmp=tmp)
            out = os.path.join(tmp, "reached.tsv")
            run = subprocess.run(
                [sys.executable, __file__, "--record", out, kind, arg],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            print(f"{'ok  ' if run.returncode == 0 else 'FAIL'} {kind} {arg}", flush=True)
            if run.returncode:
                failed.append(arg)
                print(run.stdout[-2000:])
            if os.path.exists(out):
                with open(out) as fh:
                    for line in fh:
                        path, first = line.split("\t")
                        reached.add((path, int(first)))
                os.remove(out)
    total = counted = 0
    per_module, dead_spans = defaultdict(int), []
    for path, first, last, name in functions():
        total += 1
        if (str(path), first) in reached:
            continue
        counted += 1
        rel = path.relative_to(ROOT)
        nested = any(p == path and a <= first and last <= b for p, a, b in dead_spans)
        print(f"{rel}:{first}-{last} {name}" + (" (nested)" if nested else ""))
        if not nested:
            dead_spans.append((path, first, last))
            per_module[str(rel)] += last - first + 1
    print()
    for module, lines in sorted(per_module.items()):
        print(f"{lines:6d}  {module}")
    print(f"unreached: {counted} of {total} functions, {sum(per_module.values())} lines")
    if failed:
        print(f"{len(failed)} user path(s) failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--record"]:
        record(*sys.argv[2:5])
    sys.exit(main())
