"""Cross-stack benchmark of the simulator: end-to-end and per-layer metrics.

Runs each workload (see ``workloads.py``) in four passes, in one process
and one thread:

1. set-up: five cold set-ups, each clearing the caches,
   building the models and service-time models and running one untimed
   op; ``setup_s`` is their median.
2. timed: ops back to back with tracing off, at least the workload's op
   count (100, or 104 for ``sweep_cold``) and at least ``--seconds``.
3. memory: one op under ``tracemalloc``.
4. traced: 10 ops under the layer tracer, for the per-layer metrics.

Every op's outputs are checked; an op that raises or fails a check
counts toward ``ops_failed_frac`` and the run goes on. At the pinned
seed the simulated outputs of the first timed ops are digested and
compared with ``digests.json``.

Usage::

    python benchmarks/stack/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [-o results.json]

``--trace 0`` runs passes 1-3 and ``--trace 1`` runs one set-up and
passes 2 and 4; without ``--trace`` all four run. Every metric is
printed as ``workload metric value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (with ``--trace 0`` the end-to-end metrics that
``BENCHMARK.json`` declares, with ``--trace 1`` the per-layer ones).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import statistics
import sys
import time
import tracemalloc
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import (
    Any, Callable, ContextManager, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

#: End-to-end metrics: name -> (unit, better, regression bound, clock).
#: ``clock`` says whether the number is host time/memory or simulated.
#: A bound of 0 means any change (simulated) or any increase (failures).
#: The host-time bounds are about three times the run-to-run spread
#: measured in quiet phases of a shared 2-core host (README.md,
#: "Steadiness"); the p50 bounds stay just under ``setup_s``'s, which
#: must be the largest.
END_TO_END: Dict[str, Tuple[str, str, float, str]] = {
    "setup_s": ("s", "lower", 0.25, "host"),
    "op_s.p50": ("s", "lower", 0.24, "host"),
    "op_s.p90": ("s", "lower", 0.15, "host"),
    "us_per_sim_query.p50": ("us", "lower", 0.24, "host"),
    "peak_mem_mb": ("MB", "lower", 0.05, "host"),
    "ops_failed_frac": ("ratio", "lower", 0.0, "host"),
    "sim_p99_ms": ("ms", "lower", 0.0, "sim"),
    "sim_max_qps_under_sla": ("qps", "higher", 0.0, "sim"),
}

#: The end-to-end metrics the last JSON line carries with ``--trace 0``,
#: which ``BENCHMARK.json`` declares: every workload reports them and
#: they are never 0. ``op_s.p90`` is left out because host stalls set it
#: on the workloads whose ops all do the same work, so its run-to-run
#: spread exceeds any bound the benchmark may declare.
DECLARED = ("setup_s", "op_s.p50", "peak_mem_mb")

SETUPS = 5
TRACED_OPS = 10


# -- statistics ----------------------------------------------------------------


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile, refused unless at least
    ten samples lie beyond it (so a p90 needs 100 samples)."""
    n = len(samples)
    if n * (100.0 - p) / 100.0 < 10:
        raise ValueError(
            f"p{p:g} needs at least 10 samples beyond it; got {n} samples"
        )
    ordered = sorted(samples)
    rank = (n - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


# -- layer metrics -------------------------------------------------------------


def per_layer_metrics() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    from workloads import COUNTERS, LAYERS

    out: Dict[str, Tuple[str, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.self_ms"] = ("ms", "lower")
        out[f"{layer}.self_share"] = ("ratio", "lower")
    out.update(COUNTERS)
    out["trace.overhead_ratio"] = ("ratio", "lower")
    out["trace.span_cost_us"] = ("us", "lower")
    out["trace.attributed_frac"] = ("ratio", "higher")
    return out


# -- passes --------------------------------------------------------------------


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


def attempt(
    workload,
    i: int,
    tally: Tally,
    around: Callable[[], ContextManager] = nullcontext,
) -> Tuple[Optional[float], Any]:
    """Run and check op ``i``: ``(seconds, outputs)``, or ``(None, None)``
    when it raised or failed its check."""
    gc.collect()
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        with around():
            out = workload.op(i)
    except Exception as exc:  # a failing op is counted; the run goes on
        traceback.print_exc(file=sys.stderr)
        tally.fail(f"op {i} raised {type(exc).__name__}: {exc}")
        return None, None
    seconds = time.perf_counter() - t0
    problems = workload.check(out)
    if problems:
        tally.fail(f"op {i}: " + "; ".join(problems))
        return None, None
    return seconds, out


def setup_pass(workload, tally: Tally, count: int) -> List[float]:
    """``count`` cold set-ups, each with one untimed op."""
    times = []
    for _ in range(count):
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        attempt(workload, 0, tally)
        times.append(time.perf_counter() - t0)
    return times


class Timed(NamedTuple):
    samples: List[float]
    #: Simulated metric values and output digest of the first
    #: ``workload.ops`` ops, which every run makes whatever its length.
    sim_values: List[float]
    digest: str


def timed_pass(workload, tally: Tally, min_ops: int, seconds: float) -> Timed:
    """Ops with tracing off: at least ``min_ops`` measured and at least
    ``seconds`` long, in whole cycles."""
    samples: List[float] = []
    sim_values: List[float] = []
    digest = hashlib.blake2b(digest_size=16)
    start = time.perf_counter()
    i = 0
    while True:
        op_seconds, out = attempt(workload, i, tally)
        if op_seconds is not None:
            samples.append(op_seconds)
        if i < workload.ops:
            if out is None:
                digest.update(b"failed")
            else:
                # float32 keeps the digest stable across CPUs whose math
                # libraries differ in the last bit of a double.
                for array in workload.outputs(out):
                    digest.update(np.asarray(array, dtype="<f4").tobytes())
                if workload.sim_metric[0]:
                    sim_values.append(workload.sim_value(out))
        out = None  # release the outputs before the next op runs
        i += 1
        if tally.failed > min_ops:
            break
        if (
            i % workload.cycle == 0
            and len(samples) >= min_ops
            and time.perf_counter() - start >= seconds
        ):
            break
    return Timed(samples, sim_values, digest.hexdigest() if i >= workload.ops else "")


def memory_pass(workload, tally: Tally) -> float:
    """Peak traced memory of one op, in MB."""
    peak = [0]

    @contextmanager
    def traced() -> Iterator[None]:
        tracemalloc.start()
        try:
            yield
            peak[0] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    attempt(workload, 0, tally, traced)
    return peak[0] / 1e6


def traced_pass(workload, tally: Tally, count: int) -> Dict[str, Any]:
    """``count`` ops under the layer tracer."""
    from tracer import LayerTracer
    from workloads import KEPT, LAYERS, PER_BATCH, counter_values, op_counts

    sums: Dict[str, float] = {}
    with LayerTracer(LAYERS, per_batch=PER_BATCH, keep=KEPT) as tracer:
        for i in range(count):
            attempt(workload, i, tally, tracer.op)
            for key, value in op_counts(tracer.kept).items():
                sums[key] = sums.get(key, 0.0) + value
            tracer.kept.clear()
    ops = len(tracer.op_seconds)
    total = sum(tracer.op_seconds)
    layers = {}
    for layer, stats in tracer.stats.items():
        layers[layer] = {
            "calls": stats.calls / ops,
            "self_ms": stats.self_s / ops * 1e3,
            "self_share": stats.self_s / total,
            "absent": [t for t in LAYERS[layer] if t in tracer.absent],
        }
    return {
        "layers": layers,
        "counters": counter_values(sums, tracer.spans, ops),
        "op_seconds": tracer.op_seconds,
        "attributed_frac": sum(s.self_s for s in tracer.stats.values()) / total,
        "spans": tracer.spans,
    }


# -- one workload ----------------------------------------------------------------


def pinned_digest(name: str, seed: int) -> Optional[str]:
    pins = json.loads(DIGESTS.read_text())
    if seed != pins["seed"]:
        return None
    return pins["digests"].get(name)


def run_workload(
    workload,
    *,
    seconds: float = 0.0,
    trace: Optional[int] = None,
    setups: int = SETUPS,
    timed_ops: Optional[int] = None,
    traced_ops: int = TRACED_OPS,
) -> Dict[str, Any]:
    """Run the passes ``trace`` selects and return the workload's result.

    ``timed_ops`` overrides the timed pass's minimum op count (tests);
    a digest is checked only at full scale and the pinned seed.
    """
    from workloads import expected_layers

    tally = Tally()
    metrics: Dict[str, float] = {}
    doc: Dict[str, Any] = {"why": workload.why}

    setup_times = setup_pass(workload, tally, setups if trace != 1 else 1)
    if trace != 1:
        metrics["setup_s"] = statistics.median(setup_times)

    timed = timed_pass(workload, tally, timed_ops or workload.ops, seconds)
    p50 = statistics.median(timed.samples) if timed.samples else math.nan
    if trace != 1:
        metrics["op_s.p50"] = p50
        try:
            metrics["op_s.p90"] = percentile(timed.samples, 90)
        except ValueError as exc:
            tally.problems.append(f"op_s.p90 not reported: {exc}")
        if workload.sim_queries:
            metrics["us_per_sim_query.p50"] = p50 / workload.sim_queries * 1e6
        if timed.sim_values:
            metrics[workload.sim_metric[0]] = statistics.median(timed.sim_values)
        metrics["peak_mem_mb"] = memory_pass(workload, tally)

    pinned = pinned_digest(workload.name, workload.seed) if workload.scale == 1 else None
    if pinned is None or not timed.digest:
        digest_status = "unpinned"
    else:
        digest_status = "ok" if timed.digest == pinned else "mismatch"

    if trace != 0:
        from tracer import span_cost_us

        # Whole cycles, so the traced ops have the timed pass's op mix.
        traced_ops = -(-traced_ops // workload.cycle) * workload.cycle
        traced = traced_pass(workload, tally, traced_ops)
        for layer, row in traced["layers"].items():
            for key in ("calls", "self_ms", "self_share"):
                metrics[f"{layer}.{key}"] = row[key]
        metrics.update(traced["counters"])
        metrics["trace.overhead_ratio"] = statistics.median(traced["op_seconds"]) / p50
        metrics["trace.span_cost_us"] = span_cost_us()
        metrics["trace.attributed_frac"] = traced["attributed_frac"]
        doc["layers"] = traced["layers"]
        doc["idle_layers"] = [
            layer for layer in expected_layers(workload.name)
            if traced["layers"][layer]["calls"] == 0
        ]
        doc["spans"] = traced["spans"]

    metrics["ops_failed_frac"] = tally.failed / tally.attempted
    doc.update(
        correct=tally.failed == 0 and digest_status != "mismatch",
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        digest={"value": timed.digest, "status": digest_status},
        samples={"setups": len(setup_times), "timed_ops": len(timed.samples),
                 "traced_ops": traced_ops if trace != 0 else 0},
        metrics=metrics,
    )
    return doc


# -- command line ----------------------------------------------------------------


def _units() -> Dict[str, str]:
    units = {name: row[0] for name, row in END_TO_END.items()}
    units.update((name, row[0]) for name, row in per_layer_metrics().items())
    return units


def print_workload(name: str, doc: Dict[str, Any]) -> None:
    units = _units()
    for metric, value in doc["metrics"].items():
        print(f"{name:15s} {metric:40s} {value:.6g} {units[metric]}")
    print(f"{name:15s} digest: {doc['digest']['status']} {doc['digest']['value']}")
    for layer in doc.get("idle_layers", ()):
        print(f"{name:15s} warning: layer {layer} made no calls", file=sys.stderr)
    for row in doc.get("layers", {}).values():
        for target in row["absent"]:
            print(f"{name:15s} absent: {target}")
    for problem in doc["problems"]:
        print(f"{name:15s} problem: {problem}", file=sys.stderr)


def final_line(docs: Dict[str, Dict[str, Any]], trace: Optional[int]) -> Dict[str, Any]:
    """The contract line: one workload's metrics, or every workload's
    prefixed by its name."""
    wanted = DECLARED if trace == 0 else per_layer_metrics() if trace == 1 else None
    units = _units()
    metrics = {}
    for name, doc in docs.items():
        prefix = "" if len(docs) == 1 else f"{name}."
        for metric, value in doc["metrics"].items():
            if wanted is None or metric in wanted:
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    return {
        "correct": all(doc["correct"] for doc in docs.values()),
        "attempted": sum(doc["attempted"] for doc in docs.values()),
        "failed": sum(doc["failed"] for doc in docs.values()),
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default 2020)")
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="minimum length of the timed pass (default: just the op count)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("-o", "--output", help="write the full results as JSON")
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {list(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    docs = {}
    for name in names:
        workload = workloads.WORKLOADS[name](seed)
        docs[name] = run_workload(workload, seconds=args.seconds, trace=args.trace)
        print_workload(name, docs[name])
    if args.output:
        Path(args.output).write_text(
            json.dumps({"seed": seed, "seconds": args.seconds, "trace": args.trace,
                        "workloads": docs}, indent=1) + "\n"
        )
    print(json.dumps(final_line(docs, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
