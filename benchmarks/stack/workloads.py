"""The cross-stack benchmark's workloads, layers, and layer-to-metric map.

Each workload is one kind of op run back to back by one thread (a
closed loop). Inside an op the simulated traffic is open-loop Poisson,
seeded from the workload seed plus the op index, so the same seed gives
the same simulated inputs and outputs.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

REPO = Path(__file__).resolve().parents[2]
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro.core.speedup import SpeedupStudy  # noqa: E402
from repro.explain import explain_scenario  # noqa: E402
from repro.hw import PLATFORM_ORDER  # noqa: E402
from repro.ledger import fingerprint_for, load_rules, record_schedule  # noqa: E402
from repro.models import MODEL_ORDER, build_model  # noqa: E402
from repro.monitor import (  # noqa: E402
    detect_regime_shifts,
    detect_tail_excursions,
    evaluate_burn_rates,
    run_monitored_scenario,
)
from repro.monitor.scenario import service_model_for  # noqa: E402
from repro.ops import materialization_count  # noqa: E402
from repro.runtime import BatchingPolicy, QueryScheduler, clear_graph_cache  # noqa: E402
from repro.runtime.specmode import clear_spec_caches  # noqa: E402
from repro.telemetry.querytrace import QueryTraceCapture  # noqa: E402
from repro.workloads import paper_batch_sizes  # noqa: E402

#: The seed whose output digests are pinned in ``digests.json``.
DEFAULT_SEED = 2020

#: Loads ``serve_sla`` tries, as fractions of the server's peak rate.
SLA_LOAD_FRACTIONS = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95)

# -- layers --------------------------------------------------------------------

_TIMESERIES_PER_BATCH = tuple(
    f"repro.telemetry.timeseries:TimeSeries.{name}"
    for name in (
        "count", "count_many", "count_interval", "sample", "observe",
        "observe_many", "mark_state", "mark_state_interval",
        "window_histogram", "counter_value",
    )
)
_QUERYTRACE_PER_BATCH = tuple(
    f"repro.telemetry.querytrace:QueryTraceCapture.{name}"
    for name in ("attempt", "shed", "drop", "settle")
)

#: Entry points called once per simulated batch, query or window: traced
#: by counters only, without a span object per call.
PER_BATCH = frozenset(
    (
        "repro.runtime.scheduler:ServiceTimeModel.seconds",
        "repro.distserve.gather:GatherRun.gather",
    )
    + _TIMESERIES_PER_BATCH
    + _QUERYTRACE_PER_BATCH
)

#: Layer name (a module of ``src/repro``) -> its public entry points.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "core.speedup": ("repro.core.speedup:SpeedupStudy.run",),
    "models": (
        "repro.models.zoo:build_model",
        "repro.models.ncf:NCF.build_graph",
        "repro.models.dlrm:DLRM.build_graph",
        "repro.models.wnd:WideAndDeep.build_graph",
        "repro.models.wnd:MultiTaskWideAndDeep.build_graph",
        "repro.models.din:DIN.build_graph",
        "repro.models.dien:DIEN.build_graph",
    ),
    "runtime.graph_cache": ("repro.runtime.graph_cache:get_graph",),
    "runtime.session": ("repro.runtime.session:InferenceSession.profile",),
    "uarch": ("repro.uarch.pipeline:CpuModel.profile_graph",),
    "gpusim": ("repro.gpusim.device:GpuModel.profile_graph",),
    "runtime.scheduler": (
        "repro.runtime.scheduler:QueryScheduler.run",
        "repro.runtime.scheduler:QueryScheduler.max_load_under_sla",
        "repro.runtime.scheduler:ServiceTimeModel.seconds",
        "repro.runtime.scheduler:ServiceTimeModel.from_profiles",
    ),
    "resilience": (
        "repro.resilience.engine:ResilientScheduler.run",
        "repro.resilience.faults:FaultPlan.synthesize",
    ),
    "distserve": (
        "repro.distserve.placement:build_layout",
        "repro.distserve.gather:ShardGatherModel.start_run",
        "repro.distserve.gather:GatherRun.gather",
    ),
    "telemetry.timeseries": _TIMESERIES_PER_BATCH + tuple(
        f"repro.telemetry.timeseries:TimeSeries.{name}"
        for name in ("summary", "to_state", "compact_state")
    ),
    "telemetry.querytrace": (
        "repro.telemetry.querytrace:QueryTraceCapture.begin_run",
    ) + _QUERYTRACE_PER_BATCH,
    "monitor": (
        "repro.monitor.scenario:run_monitored_scenario",
        "repro.monitor.analysis:detect_regime_shifts",
        "repro.monitor.analysis:detect_tail_excursions",
        "repro.monitor.burnrate:evaluate_burn_rates",
    ),
    "explain": (
        "repro.explain.engine:explain_scenario",
        "repro.explain.engine:Explanation.what_if_table",
        "repro.explain.engine:Explanation.fault_attribution",
        "repro.explain.engine:Explanation.to_dict",
        "repro.explain.engine:Explanation.attribution_section",
    ),
    "ledger": ("repro.ledger.record:record_schedule",),
}

_PLAIN_RUN = "repro.runtime.scheduler:QueryScheduler.run"
_RESILIENT_RUN = "repro.resilience.engine:ResilientScheduler.run"
_CAPTURE_BEGIN = "repro.telemetry.querytrace:QueryTraceCapture.begin_run"
_MONITORED_RUN = "repro.monitor.scenario:run_monitored_scenario"
_GET_GRAPH = "repro.runtime.graph_cache:get_graph"

#: Entry points whose (first argument, result) the traced pass keeps to
#: derive the per-layer counters below.
KEPT = frozenset([_PLAIN_RUN, _RESILIENT_RUN, _CAPTURE_BEGIN, _MONITORED_RUN])

#: Per-layer counters beyond calls and self time: name -> (unit, better).
COUNTERS: Dict[str, Tuple[str, str]] = {
    "runtime.graph_cache.hit_frac": ("ratio", "higher"),
    "runtime.scheduler.batches": ("count", "lower"),
    "resilience.retries": ("count", "lower"),
    "resilience.shed_frac": ("ratio", "lower"),
    "distserve.mean_fanout": ("count", "lower"),
    "telemetry.querytrace.retained_frac": ("ratio", "higher"),
    "telemetry.timeseries.evicted_windows": ("count", "lower"),
}


def op_counts(kept: Iterable[Tuple[str, Any, Any]]) -> Dict[str, float]:
    """Raw sums behind :data:`COUNTERS` from one op's kept calls.

    A plain scheduler that delegates to the resilient engine returns the
    engine's result object, so results are counted once by identity.
    """
    sums = dict.fromkeys(
        ("batches", "retries", "shed", "queries", "gathers", "fanout_rpcs",
         "retained", "decomposed", "evicted_windows"),
        0.0,
    )
    seen = set()
    for target, first, result in kept:
        if target in (_PLAIN_RUN, _RESILIENT_RUN) and id(result) not in seen:
            seen.add(id(result))
            sums["batches"] += len(getattr(result, "batch_sizes", ()))
            if target == _RESILIENT_RUN:
                gather = getattr(result, "gather_counts", {})
                sums["retries"] += getattr(result, "retries", 0)
                sums["shed"] += getattr(result, "shed", 0)
                sums["queries"] += getattr(result, "queries", 0)
                sums["gathers"] += gather.get("gathers", 0)
                sums["fanout_rpcs"] += gather.get("fanout_rpcs", 0)
        elif target == _CAPTURE_BEGIN and id(first) not in seen:
            seen.add(id(first))
            sums["retained"] += len(getattr(first, "records", ()))
            sums["decomposed"] += getattr(first, "completed", 0)
        elif target == _MONITORED_RUN:
            timeseries = getattr(result, "timeseries", None)
            sums["evicted_windows"] += getattr(timeseries, "evicted_windows", 0)
    return sums


def counter_values(
    sums: Dict[str, float], spans: Sequence[Tuple[str, float, float, int]], ops: int
) -> Dict[str, float]:
    """:data:`COUNTERS` per op, from summed :func:`op_counts` and the spans.

    A graph-cache miss is a ``models`` span (a graph build) whose parent
    span is a ``get_graph`` lookup.
    """
    model_targets = set(LAYERS["models"])
    lookups = sum(1 for s in spans if s[0] == _GET_GRAPH)
    misses = sum(
        1 for s in spans
        if s[0] in model_targets and s[3] >= 0 and spans[s[3]][0] == _GET_GRAPH
    )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "runtime.graph_cache.hit_frac": ratio(lookups - misses, lookups),
        "runtime.scheduler.batches": sums["batches"] / ops,
        "resilience.retries": sums["retries"] / ops,
        "resilience.shed_frac": ratio(sums["shed"], sums["queries"]),
        "distserve.mean_fanout": ratio(sums["fanout_rpcs"], sums["gathers"]),
        "telemetry.querytrace.retained_frac": ratio(sums["retained"], sums["decomposed"]),
        "telemetry.timeseries.evicted_windows": sums["evicted_windows"] / ops,
    }


_COST_MODEL = (
    "core.speedup", "models", "runtime.graph_cache", "runtime.session", "uarch", "gpusim",
)
_SERVING = ("serve_sla", "explain_faults", "shard_monitor")

#: Which end-to-end metrics each layer should move, on which workloads:
#: (layers, metrics, workloads). A layer listed with an op metric for a
#: workload must make calls in that workload's ops.
LAYER_MAP: Tuple[Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]], ...] = (
    (("telemetry.querytrace",), ("op_s.p50", "peak_mem_mb"), ("explain_faults",)),
    (("telemetry.timeseries",), ("op_s.p50",), ("explain_faults", "shard_monitor")),
    (("resilience",), ("op_s.p50",), ("explain_faults", "shard_monitor")),
    (("runtime.scheduler",), ("us_per_sim_query.p50",), ("serve_sla",)),
    (("distserve",), ("op_s.p50",), ("shard_monitor",)),
    (_COST_MODEL, ("op_s.p50", "op_s.p90"), ("sweep_cold",)),
    (_COST_MODEL, ("setup_s",), _SERVING),
    (("explain",), ("op_s.p50",), ("explain_faults",)),
    (("monitor",), ("op_s.p50",), ("shard_monitor",)),
    (("ledger",), ("op_s.p50",), ("explain_faults", "shard_monitor")),
)


def expected_layers(workload: str) -> List[str]:
    """Layers the map says move an op metric of ``workload``."""
    out: List[str] = []
    for layers, metrics, workloads in LAYER_MAP:
        if workload in workloads and any(m != "setup_s" for m in metrics):
            out.extend(layer for layer in layers if layer not in out)
    return out


# -- workloads -----------------------------------------------------------------


def cold_caches() -> None:
    """Drop the process-level graph cache and the spec-mode caches."""
    clear_graph_cache()
    clear_spec_caches()


class Workload:
    """One op type. ``scale`` shrinks the simulated sizes (self-tests)."""

    name = ""
    why = ""
    #: Timed ops per run; the p90 needs at least 100.
    ops = 100
    #: A timed pass runs a whole number of cycles of ops.
    cycle = 1
    #: (name, unit) of the simulated metric, a median over ops, if any.
    sim_metric: Tuple[str, str] = ("", "")

    def __init__(self, seed: int = DEFAULT_SEED, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale

    def sized(self, full: int) -> int:
        return max(1, int(round(full * self.scale)))

    @property
    def sim_queries(self) -> int:
        """Simulated queries per op (0: not a serving workload)."""
        return 0

    def setup(self) -> None:
        """Cold set-up: clear the caches and build what ops share."""
        cold_caches()

    def op(self, i: int) -> Any:
        raise NotImplementedError

    def check(self, out: Any) -> List[str]:
        """Problems with one op's outputs; empty when correct."""
        raise NotImplementedError

    def outputs(self, out: Any) -> List[np.ndarray]:
        """The simulated outputs of one op, for the digest."""
        raise NotImplementedError

    def sim_value(self, out: Any) -> float:
        raise NotImplementedError


class SweepCold(Workload):
    name = "sweep_cold"
    why = (
        "cold 4-platform x 8-batch numeric sweep of one model per op, cycling all 8 models: "
        "only the cost-model layers run"
    )
    ops = 104
    cycle = len(MODEL_ORDER)

    def setup(self) -> None:
        super().setup()
        self.models = {name: build_model(name) for name in MODEL_ORDER}
        batches = paper_batch_sizes()
        self.batches = batches[: max(2, self.sized(len(batches)))]

    def op(self, i: int) -> Any:
        cold_caches()
        name = MODEL_ORDER[i % len(MODEL_ORDER)]
        before = materialization_count()
        sweep = SpeedupStudy(
            models={name: self.models[name]}, batch_sizes=self.batches
        ).run()
        return sweep, materialization_count() - before

    def check(self, out: Any) -> List[str]:
        sweep, materialized = out
        cells = len(PLATFORM_ORDER) * len(self.batches)
        seconds = [p.total_seconds for p in sweep.profiles.values()]
        problems = []
        if len(seconds) != cells:
            problems.append(f"{len(seconds)} profiles, expected {cells}")
        if not all(math.isfinite(s) and s > 0 for s in seconds):
            problems.append("a profile time is not finite and positive")
        if materialized:
            problems.append(f"{materialized} parameter arrays materialized")
        return problems

    def outputs(self, out: Any) -> List[np.ndarray]:
        return [np.array([p.total_seconds for p in out[0].profiles.values()])]


class ServeSla(Workload):
    name = "serve_sla"
    why = (
        "rm1 on t4, batches of 64: highest of 7 Poisson loads whose p99 meets 2 ms, 50k queries "
        "each; the bare batching loop with no sinks and no faults"
    )
    sim_metric = ("sim_max_qps_under_sla", "qps")

    @property
    def queries(self) -> int:
        return self.sized(50_000)

    @property
    def sim_queries(self) -> int:
        return self.queries * len(SLA_LOAD_FRACTIONS)

    def setup(self) -> None:
        super().setup()
        self.service = service_model_for(build_model("rm1"), "t4", 64)
        self.policy = BatchingPolicy(max_batch=64)
        peak = self.policy.max_batch / self.service.seconds(self.policy.max_batch)
        self.grid = [peak * f for f in SLA_LOAD_FRACTIONS]

    def op(self, i: int) -> Any:
        scheduler = QueryScheduler(self.service, self.policy, seed=self.seed + i)
        return scheduler.max_load_under_sla(
            0.002, 99.0, num_queries=self.queries, qps_grid=self.grid
        )

    def check(self, out: Any) -> List[str]:
        if out == 0.0 or out in self.grid:
            return []
        return [f"SLA answer {out!r} is neither 0 nor a grid load"]

    def outputs(self, out: Any) -> List[np.ndarray]:
        return [np.array([out])]

    def sim_value(self, out: Any) -> float:
        return float(out)


class _Scenario(Workload):
    """A resilient-engine scenario; one op is one CLI invocation's work."""

    sim_metric = ("sim_p99_ms", "ms")

    @property
    def queries(self) -> int:
        return self.sized(10_000)

    @property
    def sim_queries(self) -> int:
        return self.queries

    def check(self, out: Any) -> List[str]:
        result = out[0]
        problems = []
        if result.completed + result.shed + result.dropped != result.queries:
            problems.append(
                f"completed {result.completed} + shed {result.shed} + dropped "
                f"{result.dropped} != queries {result.queries}"
            )
        latencies = np.asarray(result.latencies_s)
        if len(latencies) != result.completed:
            problems.append(f"{len(latencies)} latencies for {result.completed} completed")
        if not (np.all(np.isfinite(latencies)) and np.all(latencies > 0)):
            problems.append("a completed latency is not finite and positive")
        return problems

    def outputs(self, out: Any) -> List[np.ndarray]:
        result = out[0]
        return [np.asarray(result.latencies_s), np.asarray(result.batch_sizes, dtype=float)]

    def sim_value(self, out: Any) -> float:
        return out[0].p99 * 1e3


class ExplainFaults(_Scenario):
    name = "explain_faults"
    why = (
        "repro explain --what-if all --record-dir on rm1/t4 with a 5x slowdown, 10k queries: "
        "retries, shedding, TimeSeries and query-trace capture all active"
    )

    def op(self, i: int) -> Any:
        seed = self.seed + i
        capture = QueryTraceCapture(seed=seed)
        exp, ms = explain_scenario(
            "rm1", "t4", "slowdown",
            capture=capture, queries=self.queries, seed=seed,
            scenario_overrides={"slowdown_multiplier": 5.0},
        )
        exp.what_if_table(99.0)
        attribution = exp.fault_attribution(99.0)
        exp.to_dict()
        record_schedule(
            ms.result, fingerprint_for("rm1", "t4", 64, seed),
            max_batch=64, kind="explain", timeseries=ms.timeseries,
            attribution=exp.attribution_section(),
        )
        return ms.result, exp.records, attribution["ok"]

    def check(self, out: Any) -> List[str]:
        problems = super().check(out)
        _, records, fault_ok = out
        broken = sum(1 for r in records if not r.conservation_ok())
        if broken:
            problems.append(f"{broken} retained records fail conservation")
        if not fault_ok:
            problems.append("fault_attribution(99) is not ok")
        return problems


class ShardMonitor(_Scenario):
    name = "shard_monitor"
    why = (
        "repro monitor --scenario shard_slowdown --rules ci/burnrate.toml on rm2/broadwell, 10k "
        "queries: every batch fans out through the shard gather"
    )

    def setup(self) -> None:
        super().setup()
        self.rules = load_rules(REPO / "ci" / "burnrate.toml")

    def op(self, i: int) -> Any:
        seed = self.seed + i
        ms = run_monitored_scenario(
            "rm2", "broadwell", "shard_slowdown", queries=self.queries, seed=seed
        )
        summary = ms.timeseries.summary()
        alerts = list(detect_regime_shifts(summary))
        alerts += detect_tail_excursions(summary)
        alerts += evaluate_burn_rates(ms.timeseries, self.rules)
        record_schedule(
            ms.result, fingerprint_for("rm2", "broadwell", 64, seed),
            max_batch=64, kind="monitor", timeseries=ms.timeseries,
        )
        return ms.result, alerts


WORKLOADS = {w.name: w for w in (SweepCold, ServeSla, ExplainFaults, ShardMonitor)}
