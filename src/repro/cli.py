"""Command-line interface: ``python -m repro <command>``.

Commands mirror the characterization workflow:

* ``models`` / ``platforms`` — list what's available.
* ``characterize`` — full cross-stack report for one configuration.
* ``sweep`` — Fig 3-style speedup table over the platform space.
* ``optimal`` — Fig 5 optimal-platform grid.
* ``topdown`` — Fig 8-style TopDown table for both CPUs.
* ``breakdown`` — Fig 6-style operator shares for one configuration.
* ``trace`` — run a characterization with telemetry on and export a
  Chrome/Perfetto trace plus a metrics report; ``--scheduler`` /
  ``--resilience`` trace the serving simulation (per-batch and
  fault-window spans) instead.
* ``metrics`` — list every registered metric after an instrumented run.
* ``record`` — persist run records (config fingerprint + cross-stack
  metrics) to a ledger directory for later diffing.
* ``diff`` — cross-stack differential between run records (``A B`` or
  ``--against baselines/``) with noise gating and attribution.
* ``check`` — evaluate declarative SLO rules (TOML) against run
  records; exit 0/1/2 for pass/warn/fail.
* ``resilience`` — inject a fault scenario into the scheduler
  simulation and compare tail latency with each resilience policy
  on/off.
* ``monitor`` — run one fault scenario with windowed time-series
  telemetry attached: per-window timeline, regime-shift / tail-
  excursion detection, and SLO burn-rate alerts (``--rules``).
* ``report`` — render the time-series section of a persisted run
  record as a markdown or self-contained HTML dashboard.
* ``lint`` — run the REPnnn determinism/concurrency linter over source
  paths (text/JSON output; nonzero exit for CI gating).
* ``verify`` — statically verify every zoo model graph (raw and
  optimized) with the shape/dtype verifier.
* ``claims`` — check every encoded paper claim against the models.
* ``explain`` — critical-path latency attribution of one fault
  scenario, with what-if bounds.
* ``shard`` — sharded-gather placement × gather-policy matrix under
  injected shard faults.
* ``fuzz`` — differential fuzzing of the cross-implementation
  contracts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from repro import telemetry
from repro.core import (
    SpeedupStudy,
    breakdown_for,
    characterize,
    collect_suite,
    render_grid,
    render_table,
)
from repro.distserve import matrix_records, run_shard_matrix
from repro.hw import PLATFORM_ORDER, PLATFORMS
from repro.ledger import (
    DEFAULT_TOLERANCE,
    RunLedger,
    diff_against_baselines,
    diff_records,
    evaluate,
    fingerprint_for,
    load_records,
    load_rules,
    record_run,
    record_schedule,
    record_sweep,
)
from repro.models import MODEL_ORDER, build_all_models, build_model
from repro.monitor import (
    MonitorReport,
    detect_regime_shifts,
    detect_tail_excursions,
    evaluate_burn_rates,
)
from repro.monitor.scenario import (
    SCENARIOS,
    build_scenario,
    monitor_setup,
    plain_scheduler,
    replica_scenario_names,
    run_policy_matrix,
    shard_scenario_names,
)
from repro.runtime import InferenceSession, ScheduleResult

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Cross-stack workload characterization of deep recommendation "
            "systems (IISWC 2020 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the eight-model suite")
    sub.add_parser("platforms", help="list the Table II platforms")

    p = sub.add_parser("characterize", help="cross-stack report for one config")
    p.add_argument("model", choices=MODEL_ORDER)
    p.add_argument("--platform", default="broadwell")
    p.add_argument("--batch", type=int, default=16)

    p = sub.add_parser("sweep", help="speedup-over-Broadwell table (Fig 3)")
    p.add_argument("--models", nargs="*", default=None, choices=MODEL_ORDER)
    p.add_argument(
        "--batches", nargs="*", type=int, default=[1, 16, 256, 4096, 16384]
    )
    _add_outputs(
        p, record_dir="also append one run record per sweep cell to this ledger"
    )
    p.add_argument(
        "--seed", type=int, default=2020,
        help="seed stamped into recorded fingerprints",
    )

    p = sub.add_parser("optimal", help="optimal-platform grid (Fig 5)")
    p.add_argument(
        "--batches", nargs="*", type=int, default=[1, 16, 256, 4096, 16384]
    )

    p = sub.add_parser("topdown", help="TopDown table on both CPUs (Fig 8)")
    p.add_argument("--batch", type=int, default=16)

    p = sub.add_parser("breakdown", help="operator time shares (Fig 6)")
    p.add_argument("model", choices=MODEL_ORDER)
    p.add_argument("--platform", default="broadwell")
    p.add_argument("--batch", type=int, default=64)

    sub.add_parser(
        "claims", help="verify every encoded paper claim against the models"
    )

    p = sub.add_parser(
        "trace",
        help="characterize with telemetry on; export Chrome/Perfetto trace",
    )
    _add_telemetry_run_args(p)
    p.add_argument(
        "-o", "--output", default=None,
        help="trace path (default <model>_<platform>.trace.json)",
    )
    p.add_argument(
        "--metrics-output", default=None,
        help="metrics JSON path (default <trace stem>.metrics.json)",
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--scheduler", action="store_true",
        help="trace the serving simulation (per-batch scheduler spans) "
        "instead of the characterization",
    )
    mode.add_argument(
        "--resilience", action="store_true",
        help="like --scheduler, with an injected fault scenario so the "
        "trace shows fault windows and policy reactions",
    )

    p = sub.add_parser(
        "metrics", help="list all registered metrics after an instrumented run"
    )
    _add_telemetry_run_args(p)
    p.add_argument(
        "--format", choices=["table", "json", "csv"], default="table"
    )

    p = sub.add_parser(
        "resilience",
        help="policy matrix under injected faults: p99 with each policy on/off",
    )
    _add_scenario_args(
        p, model="rm2", queries=800, fallback="broadwell",
        scenarios=("slowdown", replica_scenario_names()),
    )
    p.add_argument(
        "--deadline-ms", type=float, default=None, dest="deadline_ms",
        help="SLA deadline (default: 10x the batch service time)",
    )
    _add_outputs(
        p, trace="write a Perfetto trace of the all-policies run to this path",
        record_dir="append a run record of the all-policies run to this ledger",
    )

    p = sub.add_parser(
        "monitor",
        help="windowed serving timeline with regime/tail/burn-rate alerts",
    )
    _add_scenario_args(
        p, fallback=None, scenarios=("slowdown", SCENARIOS),
        fault_knobs=True,
    )
    p.add_argument(
        "--rules", default=None,
        help="TOML SLO rules file; latency rules get windowed "
        "fast/slow burn-rate evaluation",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_outputs(
        p, trace="write a Perfetto trace (spans + time-series counter "
        "tracks) to this path",
        record_dir="append a run record (with its compact time-series "
        "section) to this ledger",
        report="also write a dashboard to this path (.html -> HTML, "
        "else markdown)",
    )
    p.add_argument(
        "--expect-fault-alert", action="store_true",
        dest="expect_fault_alert",
        help="exit nonzero unless at least one fault-correlated alert "
        "fires (CI smoke gate)",
    )

    p = sub.add_parser(
        "explain",
        help="critical-path latency attribution for one fault scenario",
    )
    _add_scenario_args(
        p, fallback=None, scenarios=("slowdown", SCENARIOS),
        fault_knobs=True,
    )
    p.add_argument(
        "--what-if", default=None, dest="what_if",
        help="bound the p99 win of zeroing one component "
        "(or 'fault_windows', or 'all' for the full table)",
    )
    p.add_argument(
        "--top-queries", type=int, default=5, dest="top_queries",
        help="slowest queries to list (0 disables)",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_outputs(
        p, trace="write a Perfetto trace with per-query flow events "
        "threading each query across its attempts",
        record_dir="append a run record carrying the attribution section "
        "to this ledger",
        report="also write an explain report to this path (.html -> "
        "HTML, else markdown)",
    )
    p.add_argument(
        "--expect-fault-attribution", action="store_true",
        dest="expect_fault_attribution",
        help="exit nonzero unless a majority of the p99 excursion "
        "overlaps injected fault windows and the top component is "
        "fault-correlated (CI smoke gate)",
    )

    p = sub.add_parser(
        "shard",
        help="sharded-gather placement x gather-policy matrix under "
        "injected shard faults",
    )
    _add_scenario_args(
        p, model="rm2", platform="broadwell", queries=1500,
        load="80%% of the sharded peak — model compute plus the healthy "
        "blind gather",
        scenarios=("shard_slowdown", shard_scenario_names()),
    )
    p.add_argument(
        "--shards", type=int, default=4,
        help="simulated shard servers holding the embedding tables",
    )
    p.add_argument(
        "--sharding", choices=["row", "table", "column"], default="row",
    )
    p.add_argument(
        "--alpha", type=float, default=1.1,
        help="Zipf skew of the embedding index distribution",
    )
    p.add_argument(
        "--hot-k", type=int, default=1024, dest="hot_k",
        help="hot rows per table replicated by locality-aware placement",
    )
    p.add_argument(
        "--replicas", type=int, default=2,
        help="holders a replicated read races (fastest-of-R)",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_outputs(
        p, record_dir="write one tagged run record per matrix row to this ledger"
    )
    p.add_argument(
        "--split", action="store_true",
        help="with --record-dir: one file per record (baseline layout)",
    )
    p.add_argument(
        "--expect-locality-win", action="store_true",
        dest="expect_locality_win",
        help="exit nonzero unless locality-aware placement + gather "
        "policies beats blind placement on p99 (CI smoke gate)",
    )

    p = sub.add_parser(
        "report",
        help="render a recorded time-series section as a dashboard",
    )
    p.add_argument(
        "records", help="run-record file (.json/.jsonl) or ledger directory",
    )
    p.add_argument(
        "-o", "--output", default=None,
        help="dashboard path (default: stdout)",
    )
    p.add_argument(
        "--format", choices=["md", "html", "text", "json"], default=None,
        help="default: from the output extension, else md",
    )
    p.add_argument(
        "--rules", default=None,
        help="TOML SLO rules file for burn-rate re-evaluation "
        "(lower-bound error fractions from the compact summary)",
    )

    p = sub.add_parser(
        "record",
        help="persist cross-stack run records to a ledger directory",
    )
    p.add_argument(
        "--models", nargs="*", default=None, choices=MODEL_ORDER,
        help="models to record (default: all eight)",
    )
    p.add_argument(
        "--platforms", nargs="*", default=["broadwell"],
        help="platform keys to record (default: broadwell)",
    )
    p.add_argument("--batch-size", type=int, default=64, dest="batch_size")
    p.add_argument(
        "--queries", type=int, default=300,
        help="scheduler-simulation queries per record (0 = profile only)",
    )
    p.add_argument(
        "--qps", type=float, default=None,
        help="arrival rate (default: half the server's peak capacity)",
    )
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument(
        "--out", default="runs",
        help="ledger directory (default: runs/)",
    )
    p.add_argument(
        "--split", action="store_true",
        help="write one pretty-printed <model>_<platform>_b<N>.json per "
        "record (the baselines/ layout) instead of appending to "
        "ledger.jsonl",
    )

    p = sub.add_parser(
        "diff",
        help="cross-stack differential between run records",
    )
    p.add_argument(
        "baseline",
        help="baseline record file/dir — or the candidate when --against "
        "is used",
    )
    p.add_argument(
        "candidate", nargs="?", default=None,
        help="candidate record file/dir (omit with --against)",
    )
    p.add_argument(
        "--against", default=None,
        help="baseline directory; every candidate record is matched to "
        "its baseline by fingerprint key",
    )
    p.add_argument(
        "--tolerance", type=float, default=None,
        help="relative noise gate (default 0.05 = 5%%)",
    )
    p.add_argument(
        "--fail-on-regression", action="store_true",
        dest="fail_on_regression",
        help="exit nonzero if any regression (or coverage gap) is found",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "-v", "--verbose", action="store_true",
        help="show every compared metric, not just significant movers",
    )

    p = sub.add_parser(
        "check",
        help="evaluate declarative SLO rules against run records",
    )
    p.add_argument("records", help="record file (.json/.jsonl) or directory")
    p.add_argument(
        "--rules", required=True,
        help="TOML rules file ([[rule]] tables; see repro.ledger.slo)",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser(
        "lint",
        help="REPnnn determinism/concurrency lint over source paths",
    )
    p.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="exit nonzero on any diagnostic, warnings included",
    )
    p.add_argument(
        "--format", choices=["text", "json"], default="text",
    )
    p.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to enable (default: all)",
    )
    p.add_argument(
        "--no-twins", action="store_true",
        help="skip the GV2xx scalar-vs-vectorized twin-drift pass",
    )

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing of cross-implementation contracts",
    )
    p.add_argument(
        "--budget", type=float, default=60.0,
        help="time budget in seconds, split across contracts to derive "
        "deterministic example counts (default: 60)",
    )
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument(
        "--contract", action="append", default=None,
        help="contract name to fuzz (repeatable; default: all)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report instead of text",
    )
    p.add_argument(
        "--corpus-dir", default=".fuzz",
        help="directory for shrunk failure repro files (default: .fuzz)",
    )
    p.add_argument(
        "--list", action="store_true",
        help="list registered contracts and exit",
    )

    p = sub.add_parser(
        "verify",
        help="statically verify zoo model graphs (raw + optimized)",
    )
    p.add_argument(
        "--models", nargs="*", default=None, choices=MODEL_ORDER,
        help="models to verify (default: all eight)",
    )
    p.add_argument(
        "--batches", nargs="*", type=int, default=[1, 64, 16384],
    )
    p.add_argument(
        "--format", choices=["text", "json"], default="text",
    )
    return parser


def _add_telemetry_run_args(p: argparse.ArgumentParser) -> None:
    _add_scenario_args(
        p, model="rm2", platform="broadwell", queries=512,
        queries_help="queries in the scheduler simulation (0 disables it)",
        load="half the server's peak capacity",
    )
    p.add_argument(
        "--no-run", action="store_true",
        help="skip the functional NumPy execution of one batch",
    )


def _add_outputs(p: argparse.ArgumentParser, **helps: str) -> None:
    """Optional output paths (``trace``, ``record_dir``, ``report``),
    each with its subcommand's help text."""
    for dest, text in helps.items():
        p.add_argument(f"--{dest.replace('_', '-')}", dest=dest, help=text)


#: ``_add_scenario_args(fallback=...)`` default: the subcommand has no
#: ``--fallback`` flag.
_NO_FALLBACK_FLAG = "-"


def _add_scenario_args(
    p: argparse.ArgumentParser,
    *,
    model: str = "rm1",
    platform: str = "t4",
    queries: int = 1200,
    queries_help: Optional[str] = None,
    load: str = "40%% of the primary's peak capacity",
    fallback: Optional[str] = _NO_FALLBACK_FLAG,
    scenarios: Optional[Tuple[str, Iterable[str]]] = None,
    fault_knobs: bool = False,
) -> None:
    """The serving-scenario flags, shared by every subcommand that runs
    one. ``scenarios`` is ``(default, choices)``; ``fault_knobs`` adds
    ``--slowdown-multiplier`` and ``--window-ms``."""
    p.add_argument("--model", default=model, help="model name (aliases ok)")
    p.add_argument("--platform", default=platform, help="primary platform")
    if fallback != _NO_FALLBACK_FLAG:
        p.add_argument(
            "--fallback", default=fallback,
            help="standby platform for failover/hedging ('none' "
            "disables; default: %(default)s)",
        )
    p.add_argument("--batch-size", type=int, default=64, dest="batch_size")
    p.add_argument("--queries", type=int, default=queries, help=queries_help)
    p.add_argument(
        "--qps", type=float, default=None,
        help=f"arrival rate (default: {load})",
    )
    p.add_argument("--seed", type=int, default=2020)
    if scenarios is not None:
        default, choices = scenarios
        p.add_argument("--scenario", default=default, choices=sorted(choices))
    if fault_knobs:
        p.add_argument(
            "--slowdown-multiplier", type=float, default=None,
            dest="slowdown_multiplier",
            help="override the scenario's GPU-throttle multiplier",
        )
        p.add_argument(
            "--window-ms", type=float, default=None, dest="window_ms",
            help="telemetry window, and explain's fault-overlap slack "
            "(default: horizon / 24 windows)",
        )


def _cmd_models(args) -> str:
    rows = [
        [m.info.display_name, name, m.info.application_domain,
         m.total_embedding_tables(), f"{m.lookups_per_table():.0f}"]
        for name, m in build_all_models().items()
    ]
    return render_table(
        ["model", "key", "domain", "tables", "lookups/table"], rows
    )


def _cmd_platforms(args) -> str:
    rows = [
        [key, spec.name, spec.microarchitecture, spec.kind,
         f"{spec.dram_bandwidth_gbps} GB/s", f"{spec.tdp_w} W"]
        for key, spec in PLATFORMS.items()
    ]
    return render_table(["key", "name", "uarch", "kind", "mem BW", "TDP"], rows)


def _cmd_characterize(args) -> str:
    report = characterize(args.model, args.platform, args.batch)
    lines = report.summary_lines()
    lines.append("operator breakdown:")
    for op, share in report.operator_breakdown.top(6):
        lines.append(f"  {op:20s} {share * 100:5.1f}%")
    return "\n".join(lines)


def _cmd_sweep(args) -> str:
    names = args.models if args.models else MODEL_ORDER
    models = {n: build_model(n) for n in names}
    sweep = SpeedupStudy(models=models, batch_sizes=args.batches).run()
    rows = []
    for model in names:
        for batch in args.batches:
            rows.append(
                [model, batch]
                + [round(sweep.speedup(model, p, batch), 2) for p in PLATFORM_ORDER]
            )
    table = render_table(
        ["model", "batch"] + list(PLATFORM_ORDER), rows, float_format="{:.2f}"
    )
    if args.record_dir:
        ledger = RunLedger(args.record_dir)
        records = record_sweep(sweep, seed=args.seed)
        for record in records:
            path = ledger.append(record)
        table += f"\nrecorded {len(records)} run records -> {path}"
    return table


def _cmd_optimal(args) -> str:
    sweep = SpeedupStudy(batch_sizes=args.batches).run()
    cells = {}
    for cell in SpeedupStudy.optimal_platform_grid(sweep):
        cells[(cell.model, cell.batch_size)] = f"{cell.platform} {cell.speedup:.1f}x"
    return render_grid(MODEL_ORDER, args.batches, cells)


def _cmd_topdown(args) -> str:
    suite = collect_suite(batch_size=args.batch)
    rows = []
    for cpu, reports in suite.items():
        for model in MODEL_ORDER:
            td = reports[model].topdown
            rows.append(
                [
                    cpu,
                    model,
                    f"{td.retiring:.2f}",
                    f"{td.bad_speculation:.2f}",
                    f"{td.frontend_bound:.2f}",
                    f"{td.backend_bound:.2f}",
                    f"{reports[model].i_mpki:.1f}",
                ]
            )
    return render_table(
        ["cpu", "model", "retiring", "bad_spec", "frontend", "backend", "i-MPKI"],
        rows,
    )


def _cmd_breakdown(args) -> str:
    session = InferenceSession(build_model(args.model), args.platform)
    breakdown = breakdown_for(session.profile(args.batch))
    rows = [[op, f"{share * 100:.1f}%"] for op, share in breakdown.top(10)]
    return render_table(
        ["operator", "share"],
        rows,
        title=f"{args.model} on {args.platform}, batch {args.batch}",
    )


def _traced_characterization(args) -> Tuple[
    InferenceSession,
    Optional[ScheduleResult],
    telemetry.Tracer,
    telemetry.MetricsRegistry,
]:
    """Shared `trace` / `metrics` body: one instrumented characterization.

    Profiles the requested configuration (recording spans + metrics),
    optionally executes one batch numerically, and runs a dynamic-
    batching scheduler simulation parameterized by profiles of the same
    configuration. Calibration profiles for the service-time model are
    taken with telemetry off so the exported trace carries exactly one
    modeled timeline — the requested batch size's.
    """
    model = _or_exit(build_model, args.model)
    session = _or_exit(InferenceSession, model, args.platform)
    batch = args.batch_size

    scheduler = None
    if args.queries != 0:
        scheduler, qps = _or_exit(
            plain_scheduler, model, args.platform, batch,
            queries=args.queries, qps=args.qps, seed=args.seed,
        )

    result = None
    with telemetry.capture() as (tracer, registry):
        _or_exit(session.profile, batch)
        if not args.no_run:
            session.run_generated(batch)
        if scheduler is not None:
            with tracer.span(
                "scheduler.simulate", category="scheduler",
                arrival_qps=qps, queries=args.queries,
            ):
                result = scheduler.run(qps, num_queries=args.queries)
    return session, result, tracer, registry


def _cmd_trace_scheduler(args) -> str:
    """``trace --scheduler`` / ``--resilience``: trace the serving loop.

    The legacy :class:`QueryScheduler` simulation emits metrics but no
    per-batch spans, so both modes drive a single-replica
    :class:`ResilientScheduler` (which instruments every server busy
    period), at half the primary's peak rate. ``--resilience`` runs the
    ``slowdown`` scenario plus 5% stragglers under retry and shedding so
    the exported trace shows fault windows and policy reactions.
    """
    mode = "resilience" if args.resilience else "scheduler"
    setup = _or_exit(
        build_scenario, args.model, args.platform, "slowdown",
        batch_size=args.batch_size,
        queries=args.queries if args.queries != 0 else 512,
        qps=args.qps, seed=args.seed, load=0.5,
        scenario_overrides={"straggler_probability": 0.05},
    )
    scheduler = setup.scheduler(
        setup.policy_with("retry", "shed") if args.resilience
        else setup.policy_with(),
        faults=args.resilience,
    )
    with telemetry.capture() as (tracer, registry):
        result = scheduler.run(setup.qps, num_queries=setup.queries)

    name = setup.replicas[0].service_model.model
    out = args.output
    if out is None:
        out = f"{name}_{args.platform}.{mode}.trace.json".replace(" ", "_")
    _write_trace(
        out, tracer, registry, f"repro {mode}: {name} on {args.platform}"
    )
    lines = _span_summary(out, tracer.sorted_spans())
    lines.append("")
    lines.append(
        f"{mode}: {result.completed}/{result.queries} completed at "
        f"{setup.qps:.0f} QPS, p50/p99 = {result.p50 * 1e3:.3f} / "
        f"{result.p99 * 1e3:.3f} ms"
    )
    if args.resilience:
        lines.append(f"injected: {_injected(result)}")
    return "\n".join(lines)


def _cmd_trace(args) -> str:
    if args.scheduler or args.resilience:
        return _cmd_trace_scheduler(args)
    session, result, tracer, registry = _traced_characterization(args)
    out = args.output
    if out is None:
        out = f"{session.model.name}_{session.platform.name}.trace.json".replace(
            " ", "_"
        )
    metrics_out = args.metrics_output
    if metrics_out is None:
        stem = out[: -len(".trace.json")] if out.endswith(".trace.json") else (
            os.path.splitext(out)[0]
        )
        metrics_out = f"{stem}.metrics.json"

    snapshot = registry.snapshot()
    _write_trace(
        out, tracer, registry,
        f"repro: {session.model.name} on {session.platform.name}",
    )
    _write("trace", telemetry.write_metrics_report, metrics_out, snapshot)

    lines = _span_summary(out, tracer.sorted_spans())
    lines.insert(1, f"metrics: {metrics_out}  ({len(snapshot)} metrics)")
    if result is not None:
        lines.append("")
        lines.append(
            f"scheduler: {result.queries} queries, "
            f"{result.throughput_qps:.0f} QPS, mean batch "
            f"{result.mean_batch_size:.1f}, p50/p95/p99 = "
            f"{result.p50 * 1e3:.3f} / {result.p95 * 1e3:.3f} / "
            f"{result.p99 * 1e3:.3f} ms"
        )
    return "\n".join(lines)


def _span_summary(out: str, spans) -> List[str]:
    """The ``trace:`` line plus the hottest-spans table."""
    lines = [
        f"trace:   {out}  ({len(spans)} spans; open in chrome://tracing "
        "or ui.perfetto.dev)",
        "",
        "hottest spans (by total seconds):",
    ]
    for entry in telemetry.summarize_spans(spans, top=8):
        lines.append(
            f"  {entry['name'][:28]:28s} {entry['category']:18s} "
            f"x{entry['count']:<4d} {entry['seconds'] * 1e6:12.1f} us"
        )
    return lines


def _cmd_metrics(args) -> str:
    _, _, _, registry = _traced_characterization(args)
    return telemetry.render_metrics(registry.snapshot(), args.format)


def _cmd_resilience(args) -> str:
    matrix = _or_exit(
        run_policy_matrix, args.model, args.platform, args.scenario,
        batch_size=args.batch_size, queries=args.queries, qps=args.qps,
        seed=args.seed, fallback=args.fallback,
        deadline_s=(
            None if args.deadline_ms is None else args.deadline_ms * 1e-3
        ),
    )
    setup = matrix.setup
    fleet = "+".join(r.name for r in setup.replicas)
    rows = []
    for label, result in matrix.rows.items():
        rows.append(
            [label, result.completed, result.shed, result.dropped,
             *_p50_p99_ms(result),
             result.retries, result.hedges, result.failovers,
             result.degraded_queries]
        )

    all_policies = matrix.rows["faults + all"]
    lines = [
        f"scenario '{args.scenario}' on {args.model}/{fleet}: "
        f"{args.queries} queries at {setup.qps:.0f} QPS "
        f"(deadline {setup.deadline_s * 1e3:.1f} ms, seed {args.seed})",
        render_table(
            ["policy", "ok", "shed", "drop", "p50 ms", "p99 ms",
             "retries", "hedges", "failover", "degraded"],
            rows,
        ),
    ]
    if all_policies.fault_counts:
        lines.append(
            f"injected (all-policies run): {_injected(all_policies)}"
        )
    if args.trace:
        # The engine is deterministic, so re-running the all-policies
        # row under span capture traces exactly the run tabled above.
        with telemetry.capture() as (tracer, registry):
            setup.scheduler(setup.policy).run(
                setup.qps, num_queries=setup.queries
            )
        _write_trace(
            args.trace, tracer, registry,
            f"repro resilience: {args.model} on {fleet}",
        )
        lines.append(_trace_line(args.trace))
    if args.record_dir:
        path = _record(args, all_policies, setup.qps, "resilience")
        lines.append(f"recorded all-policies run -> {path}")
    return "\n".join(lines)


def _cmd_shard(args) -> Tuple[str, int]:
    matrix = _or_exit(
        run_shard_matrix, args.model, args.platform, args.scenario,
        shards=args.shards, sharding=args.sharding,
        batch_size=args.batch_size, queries=args.queries, qps=args.qps,
        seed=args.seed, alpha=args.alpha, hot_k=args.hot_k,
        replicas=args.replicas,
    )

    rows = []
    for r in matrix.rows:
        rows.append(
            [
                r.label,
                r.layout.num_shards,
                r.result.completed,
                *_p50_p99_ms(r.result),
                f"{r.layout.load_imbalance():.2f}",
                int(r.gather_count("hedged_rpcs")),
                int(r.gather_count("replicated_reads")),
                int(r.gather_count("imputed_lookups")
                    + r.gather_count("cached_lookups")),
                int(r.gather_count("blocked_gathers")),
            ]
        )

    setup = matrix.setup
    win = matrix.locality_win()
    code = 0
    lines = [
        f"scenario '{setup.scenario}' on {setup.model}/{setup.platform}: "
        f"{setup.queries} queries at {setup.qps:.0f} QPS across "
        f"{matrix.shards} {matrix.sharding}-sharded servers "
        f"(seed {setup.seed})",
        render_table(
            ["placement/policy", "shards", "ok", "p50 ms", "p99 ms",
             "load imb", "hedges", "repl reads", "degraded", "blocked"],
            rows,
        ),
    ]
    blind_p99 = matrix.row("blind").p99_ms
    aware_p99 = matrix.row("locality+policies").p99_ms
    lines.append(
        f"p99 blind {blind_p99:.2f} ms vs locality+policies "
        f"{aware_p99:.2f} ms -> locality win: {'yes' if win else 'NO'}"
    )
    if args.record_dir:
        ledger = RunLedger(args.record_dir)
        for record in matrix_records(matrix):
            path = (
                ledger.write(record) if args.split else ledger.append(record)
            )
            lines.append(f"recorded {record.fingerprint.key} -> {path}")
    if args.expect_locality_win and not win:
        lines.append(
            "FAIL: locality-aware placement + gather policies did not "
            "beat blind placement on p99"
        )
        code = 1
    if args.format == "json":
        keys = ("model", "platform", "scenario", "seed", "qps")
        payload = {
            **{key: getattr(setup, key) for key in keys},
            "shards": matrix.shards,
            "sharding": matrix.sharding,
            "locality_win": win,
            "rows": [
                {
                    "label": r.label,
                    "p50_ms": r.p50_ms,
                    "p99_ms": r.p99_ms,
                    "gather_counts": dict(r.result.gather_counts),
                    "layout": r.layout.scalars(),
                }
                for r in matrix.rows
            ],
        }
        return json.dumps(payload, indent=2), code
    return "\n".join(lines), code


def _monitor_alerts(summary, source, rules):
    """All windowed analyses over one summary, in a stable order."""
    alerts = list(detect_regime_shifts(summary))
    alerts += detect_tail_excursions(summary)
    if rules:
        alerts += evaluate_burn_rates(source, rules)
    return alerts


def _monitored_setup(args):
    """The ``monitor`` / ``explain`` scenario, built (and calibrated)
    before any trace capture starts, so a trace holds only the serving
    run and two runs at one seed write the same file."""
    overrides = None
    if args.slowdown_multiplier is not None:
        overrides = {"slowdown_multiplier": args.slowdown_multiplier}
    return _or_exit(
        build_scenario, args.model, args.platform, args.scenario,
        batch_size=args.batch_size, queries=args.queries, qps=args.qps,
        seed=args.seed, fallback=args.fallback,
        window_s=None if args.window_ms is None else args.window_ms * 1e-3,
        scenario_overrides=overrides,
    )


def _cmd_monitor(args) -> Tuple[str, int]:
    rules = _load_rules(args.rules)
    setup = _monitored_setup(args)
    with _capturing(args.trace) as (tracer, registry):
        ms = monitor_setup(setup)

    summary = ms.timeseries.summary()
    # Burn rates read the live TimeSeries: per-window histograms make
    # the error fractions exact rather than percentile lower bounds.
    alerts = _monitor_alerts(summary, ms.timeseries, rules)
    result = ms.result
    report = MonitorReport(
        summary,
        alerts,
        meta={
            key: getattr(ms, key) for key in (
                "model", "platform", "fallback", "scenario", "qps", "seed",
                "queries", "batch_size", "deadline_s",
            )
        },
        scalars={
            "completed": float(result.completed),
            "shed": float(result.shed),
            "dropped": float(result.dropped),
            "p50_s": result.p50 if result.completed else float("nan"),
            "p99_s": result.p99 if result.completed else float("nan"),
        },
        fault_windows=ms.fault_windows(),
    )

    extra = []
    if ms.timeseries.evicted_windows:
        extra.append(
            f"warning: {ms.timeseries.evicted_windows} oldest telemetry "
            f"windows evicted by the ring buffer (max_windows "
            f"{ms.timeseries.max_windows}); the timeline and alerts cover "
            "the retained windows only"
        )
    if args.trace:
        _write_trace(
            args.trace, tracer, registry,
            f"repro monitor: {ms.model} on {ms.platform}",
            timeseries=ms.timeseries,
        )
        extra.append(_trace_line(args.trace))
    if args.record_dir:
        path = _record(
            args, result, ms.qps, "monitor", timeseries=ms.timeseries
        )
        extra.append(f"recorded monitored run -> {path}")
    if args.report:
        _write_report(
            args.report,
            report.render_html() if args.report.endswith(".html")
            else report.render_markdown(),
        )
        extra.append(f"dashboard: {args.report}")

    fault_alerts = sum(1 for a in alerts if a.fault_correlated)
    code = 0
    if args.expect_fault_alert and not fault_alerts:
        extra.append("FAIL: no fault-correlated alert fired")
        code = 1
    if args.format == "json":
        return report.to_json(), code
    return "\n".join([report.render_text()] + extra), code


def _cmd_explain(args) -> Tuple[str, int]:
    from repro.explain import explain_setup, render_html, render_markdown
    from repro.explain import render_text as render_explain_text
    from repro.telemetry.querytrace import COMPONENTS

    what_if_knobs = COMPONENTS + ("fault_windows", "all")
    if args.what_if is not None and args.what_if not in what_if_knobs:
        raise SystemExit(
            f"error: unknown what-if knob {args.what_if!r}; choose from "
            f"{', '.join(what_if_knobs)}"
        )

    setup = _monitored_setup(args)
    with _capturing(args.trace) as (tracer, registry):
        exp, ms = explain_setup(setup)

    extra = []
    if args.trace:
        _write_trace(
            args.trace, tracer, registry,
            f"repro explain: {ms.model} on {ms.platform}",
            timeseries=ms.timeseries, querytrace=exp.capture,
        )
        extra.append(
            _trace_line(args.trace, "; flow arrows thread each query")
        )
    if args.record_dir:
        path = _record(
            args, ms.result, ms.qps, "explain", timeseries=ms.timeseries,
            attribution=exp.attribution_section(),
        )
        extra.append(f"recorded explained run -> {path}")
    if args.report:
        render = (
            render_html if args.report.endswith(".html") else render_markdown
        )
        _write_report(args.report, render(exp, top_queries=args.top_queries))
        extra.append(f"report: {args.report}")
    if args.what_if and args.what_if != "all":
        wi = exp.what_if(args.what_if, 99.0)
        extra.append(
            f"what-if zero {wi['component']}: p99 "
            f"{wi['observed_s'] * 1e3:.3f} ms -> bound "
            f"{wi['bound_s'] * 1e3:.3f} ms "
            f"(win {wi['improvement_s'] * 1e3:.3f} ms; direct effect "
            "only, queueing relief not re-simulated)"
        )

    code = 0
    if args.expect_fault_attribution:
        fa = exp.fault_attribution(99.0)
        if fa["ok"]:
            extra.append(
                f"fault attribution gate: PASS "
                f"({fa['excursion_share']:.0%} of the p99 excursion in "
                f"fault windows; top component '{fa['top_component']}' "
                "fault-correlated)"
            )
        else:
            extra.append(
                f"FAIL: fault attribution gate "
                f"({fa['excursion_share']:.0%} of the p99 excursion in "
                f"fault windows, need >= {fa['majority']:.0%}; top "
                f"component '{fa['top_component']}' "
                + ("is" if fa["top_is_fault_correlated"] else "is NOT")
                + " fault-correlated)"
            )
            code = 1
    if args.format == "json":
        doc = exp.to_dict()
        if args.expect_fault_attribution:
            doc["gate"] = {"ok": code == 0}
        return json.dumps(doc, indent=2, sort_keys=True), code
    text = render_explain_text(exp, top_queries=args.top_queries)
    return "\n".join([text] + extra), code


# -- shared output helpers -----------------------------------------------------


def _or_exit(fn, *args, **kwargs):
    """Call ``fn``; a bad input (unknown name, wrong type or value)
    exits with ``error: <message>`` instead of a traceback."""
    try:
        return fn(*args, **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"error: {exc.args[0]}")


def _capturing(enabled):
    """``telemetry.capture()`` when ``enabled``, else ``(None, None)``:
    telemetry only observes the simulation, so results are identical."""
    if enabled:
        return telemetry.capture()
    return contextlib.nullcontext((None, None))


def _write(what: str, writer, *args, **kwargs) -> None:
    """Run one output writer; an unwritable path exits cleanly."""
    try:
        writer(*args, **kwargs)
    except OSError as exc:
        raise SystemExit(f"error: cannot write {what} output: {exc}")


def _write_trace(path, tracer, registry, process_name, **sinks) -> None:
    _write(
        "trace", telemetry.write_chrome_trace, path, tracer.sorted_spans(),
        process_name=process_name, metrics=registry.snapshot(), **sinks,
    )


def _write_report(path: str, doc: str) -> None:
    _write("report", Path(path).write_text, doc, encoding="utf-8")


def _trace_line(path: str, note: str = "") -> str:
    return f"trace: {path}  (open in chrome://tracing or ui.perfetto.dev{note})"


def _p50_p99_ms(result) -> List[str]:
    """p50 and p99 in ms for a table row; ``nan`` if none completed."""
    if not result.completed:
        return ["nan", "nan"]
    return [f"{result.p50 * 1e3:.2f}", f"{result.p99 * 1e3:.2f}"]


def _injected(result) -> str:
    """The nonzero injected-fault counters of one resilient run."""
    counts = ", ".join(f"{k}={v}" for k, v in result.fault_counts.items() if v)
    return counts or "none"


def _record(args, result, qps: float, kind: str, **sections) -> str:
    """Append one scenario run to ``args.record_dir``; returns the path."""
    record = record_schedule(
        result,
        fingerprint_for(args.model, args.platform, args.batch_size, args.seed),
        max_batch=args.batch_size,
        kind=kind,
        **sections,
    )
    record.scalars["arrival_qps"] = qps
    return RunLedger(args.record_dir).append(record)


def _load_rules(path: Optional[str]) -> list:
    """The ``--rules`` file, or no rules; a bad file exits cleanly."""
    if not path:
        return []
    try:
        return load_rules(path)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_report(args) -> str:
    rules = _load_rules(args.rules)
    try:
        records = load_records(args.records)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    windowed = [r for r in records if r.has_timeseries()]
    if not windowed:
        raise SystemExit(
            f"error: no record under {args.records!r} carries a "
            "time-series section (record one with `repro monitor "
            "--record-dir`)"
        )
    record = windowed[0]

    summary = record.timeseries_summary()
    alerts = _monitor_alerts(summary, summary, rules)
    # Injected windows are not persisted; reconstruct coarse
    # (window-aligned) spans from the recorded fault-activity tracks.
    fault_windows = []
    for track in summary.fault_tracks():
        active = [
            i for i in summary.window_indices()
            if summary.counter(track, i) > 0
        ]
        for start, end in _window_ranges(active):
            fault_windows.append(
                (
                    summary.window_start(start),
                    summary.window_start(end) + summary.window_s,
                    track,
                )
            )
    report = MonitorReport(
        summary,
        alerts,
        meta={
            "model": record.fingerprint.model,
            "platform": record.fingerprint.platform,
            "seed": record.fingerprint.seed,
            "batch_size": record.fingerprint.batch_size,
            "qps": record.scalars.get("arrival_qps"),
            "kind": record.kind,
        },
        scalars=dict(record.scalars),
        fault_windows=sorted(fault_windows),
    )

    fmt = args.format
    if fmt is None:
        fmt = "html" if (args.output or "").endswith(".html") else "md"
    doc = {
        "md": report.render_markdown,
        "html": report.render_html,
        "text": report.render_text,
        "json": report.to_json,
    }[fmt]()
    if args.output:
        _write_report(args.output, doc)
        extras = len(windowed) - 1
        note = f" (+{extras} more windowed record(s) ignored)" if extras else ""
        return f"dashboard: {args.output}  [{record.fingerprint.key}]{note}"
    return doc


def _window_ranges(indices):
    """Consecutive ints -> inclusive (start, end) ranges."""
    ranges = []
    for i in sorted(indices):
        if ranges and i == ranges[-1][1] + 1:
            ranges[-1][1] = i
        else:
            ranges.append([i, i])
    return [(a, b) for a, b in ranges]


def _cmd_record(args) -> str:
    names = args.models if args.models else MODEL_ORDER
    ledger = RunLedger(args.out)
    lines = []
    for platform in args.platforms:
        if platform not in PLATFORMS:
            raise SystemExit(
                f"error: unknown platform {platform!r} "
                f"(choose from {', '.join(PLATFORMS)})"
            )
    for name in names:
        for platform in args.platforms:
            record = _or_exit(
                record_run, name, platform, batch_size=args.batch_size,
                seed=args.seed, queries=args.queries, qps=args.qps,
            )
            path = (
                ledger.write(record) if args.split else ledger.append(record)
            )
            detail = f"{record.scalars['total_seconds'] * 1e3:.3f} ms/batch"
            if record.has_latency():
                detail += f", p99 {record.percentile(99.0) * 1e3:.3f} ms"
            lines.append(
                f"{record.fingerprint.key:24s} {record.kind:8s} "
                f"{detail}  -> {path}"
            )
    lines.append(f"{len(names) * len(args.platforms)} records in {args.out}/")
    return "\n".join(lines)


def _cmd_diff(args) -> Tuple[str, int]:
    tolerance = (
        args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    )
    try:
        if args.against is not None:
            if args.candidate is not None:
                raise SystemExit(
                    "error: give either two positional paths or --against, "
                    "not both"
                )
            candidates = load_records(args.baseline)
            baselines = load_records(args.against)
            diffs, unmatched = diff_against_baselines(
                candidates, baselines, tolerance
            )
        else:
            if args.candidate is None:
                raise SystemExit(
                    "error: need a candidate path (or --against <baselines>)"
                )
            a = load_records(args.baseline)
            b = load_records(args.candidate)
            if len(a) != 1 or len(b) != 1:
                diffs, unmatched = diff_against_baselines(b, a, tolerance)
            else:
                diffs, unmatched = [diff_records(a[0], b[0], tolerance)], []
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")

    regressions = sum(len(d.regressions) for d in diffs)
    gaps = [u for u in unmatched if "not covered" in u]
    failed = args.fail_on_regression and (regressions > 0 or bool(gaps))
    if args.format == "json":
        payload = {
            "tolerance": tolerance,
            "regressions": regressions,
            "unmatched": unmatched,
            "diffs": [d.to_dict() for d in diffs],
        }
        return json.dumps(payload, indent=2, sort_keys=True), int(failed)
    lines = [d.render_text(verbose=args.verbose) for d in diffs]
    lines.extend(f"! {u}" for u in unmatched)
    lines.append(
        f"{len(diffs)} configuration(s) compared at {tolerance:.0%} "
        f"tolerance: {regressions} regression(s), "
        f"{sum(len(d.improvements) for d in diffs)} improvement(s)"
    )
    if failed:
        lines.append("FAIL: regression gate tripped")
    return "\n".join(lines), int(failed)


def _cmd_check(args) -> Tuple[str, int]:
    try:
        rules = load_rules(args.rules)
        records = load_records(args.records)
        report = evaluate(rules, records)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    text = (
        report.to_json() if args.format == "json" else report.render_text()
    )
    return text, report.exit_code()


def _cmd_lint(args) -> Tuple[str, int]:
    from repro.analysis import analyze_twins, lint_paths

    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        raise SystemExit(f"error: no such path: {', '.join(missing)}")
    report = lint_paths(args.paths, select=select)
    if not args.no_twins:
        selected = {r.upper() for r in select} if select else None
        report.extend(
            d for d in analyze_twins()
            if selected is None or d.rule in selected
        )
    text = report.to_json() if args.format == "json" else report.render_text()
    return text, report.exit_code(strict=args.strict)


def _cmd_fuzz(args) -> Tuple[str, int]:
    from repro.analysis.contracts import CONTRACTS, contract_by_name
    from repro.analysis.fuzz import run_fuzz

    if args.list:
        rows = [c.describe() for c in CONTRACTS]
        if args.json:
            return json.dumps(rows, indent=2, sort_keys=True), 0
        table = render_table(
            ["contract", "cost_s", "invariant"],
            [[r["name"], r["cost_s"], r["invariant"]] for r in rows],
            title=f"{len(rows)} registered contracts",
        )
        return table, 0
    contracts = None
    if args.contract:
        try:
            contracts = [contract_by_name(n) for n in args.contract]
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}")
    report = run_fuzz(
        budget_s=args.budget,
        seed=args.seed,
        contracts=contracts,
        corpus_dir=args.corpus_dir,
    )
    text = (
        json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.json else report.render_text()
    )
    return text, 0 if report.ok else 1


def _cmd_verify(args) -> Tuple[str, int]:
    from repro.analysis import verify_graph
    from repro.graph import optimize

    names = args.models if args.models else MODEL_ORDER
    rows = []
    records = []
    failures = 0
    for name in names:
        model = build_model(name)
        for batch in args.batches:
            graph = model.build_graph(batch)
            for label, g in (("raw", graph), ("optimized", optimize(graph))):
                report = verify_graph(g)
                status = "ok" if report.clean else (
                    "WARN" if report.ok else "FAIL"
                )
                if not report.ok:
                    failures += 1
                rows.append(
                    [name, batch, label, len(g), status,
                     "; ".join(d.rule for d in report) or "-"]
                )
                records.append({
                    "model": name, "batch": batch, "graph": label,
                    "nodes": len(g), "status": status,
                    "diagnostics": [d.to_dict() for d in report],
                })
    if args.format == "json":
        return json.dumps(records, indent=2, sort_keys=True), int(failures > 0)
    table = render_table(
        ["model", "batch", "graph", "nodes", "status", "diagnostics"],
        rows,
        title=f"graph verifier: {len(rows)} graphs, {failures} failure(s)",
    )
    return table, int(failures > 0)


def _cmd_claims(args) -> str:
    from repro.core import evaluate_claims

    results = evaluate_claims()
    rows = [
        [
            "PASS" if r.passed else "FAIL",
            r.claim.figure,
            r.claim.claim_id,
            r.measured,
        ]
        for r in results
    ]
    passed = sum(r.passed for r in results)
    table = render_table(
        ["status", "figure", "claim", "measured"],
        rows,
        title=f"Paper-claim ledger: {passed}/{len(results)} claims hold",
    )
    return table


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Every subcommand is one ``_cmd_<name>(args)`` renderer.
        result = globals()[f"_cmd_{args.command}"](args)
        # Gate commands return (text, exit_code); the rest return text.
        text, code = result if isinstance(result, tuple) else (result, 0)
        print(text)
    except BrokenPipeError:  # e.g. `repro sweep | head`
        return 0
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
