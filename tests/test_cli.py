"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "bert"])

    def test_defaults(self):
        args = build_parser().parse_args(["characterize", "rm2"])
        assert args.platform == "broadwell"
        assert args.batch == 16


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "RM2" in out and "DIEN" in out

    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "Broadwell" in out and "Turing" in out

    def test_characterize(self, capsys):
        assert main(["characterize", "rm2", "--platform", "clx"]) == 0
        out = capsys.readouterr().out
        assert "topdown" in out
        assert "SparseLengthsSum" in out

    def test_characterize_gpu(self, capsys):
        assert main(["characterize", "wnd", "--platform", "t4", "--batch", "256"]) == 0
        out = capsys.readouterr().out
        assert "dominant operator" in out
        assert "topdown" not in out  # no PMU events on GPU platforms

    def test_sweep_subset(self, capsys):
        assert main(["sweep", "--models", "ncf", "--batches", "16", "1024"]) == 0
        out = capsys.readouterr().out
        assert "ncf" in out and "t4" in out

    def test_breakdown(self, capsys):
        assert main(["breakdown", "din", "--platform", "t4", "--batch", "1024"]) == 0
        out = capsys.readouterr().out
        assert "Concat" in out

    def test_optimal(self, capsys):
        assert main(["optimal", "--batches", "16", "4096"]) == 0
        out = capsys.readouterr().out
        assert "cascade_lake" in out or "t4" in out

    def test_topdown(self, capsys):
        assert main(["topdown", "--batch", "16"]) == 0
        out = capsys.readouterr().out
        assert "retiring" in out and "i-MPKI" in out


class TestTraceCommand:
    def test_trace_writes_valid_chrome_trace(self, capsys, tmp_path):
        """The acceptance-criterion invocation, end to end."""
        import collections
        import json

        from repro.models import build_model
        from repro.runtime import InferenceSession

        out = str(tmp_path / "out.trace.json")
        assert main([
            "trace", "--model", "dlrm_rm2", "--platform", "cascade-lake",
            "--batch-size", "64", "-o", out, "--queries", "128", "--no-run",
        ]) == 0
        doc = json.loads(open(out).read())
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert events
        for event in events:
            for key in ("ph", "ts", "dur", "pid", "tid", "name"):
                assert key in event

        # Per-kind span durations reproduce op_time_by_kind exactly.
        sums = collections.defaultdict(float)
        for event in events:
            sums[event["cat"]] += event["args"]["seconds"]
        profile = InferenceSession(
            build_model("dlrm_rm2"), "cascade-lake"
        ).profile(64)
        for kind, expected in profile.op_time_by_kind.items():
            assert abs(sums[kind] - expected) < 1e-9

        # Scheduler metrics rode along in the metrics report.
        metrics = json.loads(open(str(tmp_path / "out.metrics.json")).read())
        names = {r["name"] for r in metrics}
        assert {"scheduler.queue_depth", "scheduler.batch_occupancy",
                "scheduler.query_latency_s"} <= names
        stdout = capsys.readouterr().out
        assert "trace:" in stdout and "scheduler:" in stdout

    def test_trace_unknown_model_exits_cleanly(self, tmp_path):
        import pytest

        with pytest.raises(SystemExit, match="unknown model"):
            main(["trace", "--model", "bert", "-o", str(tmp_path / "x.json")])

    def test_metrics_table(self, capsys):
        assert main([
            "metrics", "--model", "rm1", "--platform", "broadwell",
            "--batch-size", "8", "--queries", "64", "--no-run",
        ]) == 0
        out = capsys.readouterr().out
        assert "scheduler.query_latency_s" in out
        assert "pmu.cycles" in out

    def test_metrics_json_and_csv(self, capsys):
        import json

        assert main([
            "metrics", "--model", "rm1", "--platform", "t4",
            "--batch-size", "8", "--queries", "0", "--no-run",
            "--format", "json",
        ]) == 0
        records = json.loads(capsys.readouterr().out)
        assert any(r["name"] == "gpusim.kernel_launches" for r in records)

        assert main([
            "metrics", "--model", "rm1", "--platform", "t4",
            "--batch-size", "8", "--queries", "0", "--no-run",
            "--format", "csv",
        ]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("metric,type,labels")


class TestResilienceCommand:
    def test_policy_matrix_table(self, capsys):
        assert main([
            "resilience", "--model", "rm1", "--queries", "250",
            "--seed", "5", "--scenario", "slowdown",
        ]) == 0
        out = capsys.readouterr().out
        assert "scenario 'slowdown'" in out
        assert "no faults" in out
        assert "faults, no policy" in out
        assert "faults + hedge" in out
        assert "faults + all" in out
        assert "p99 ms" in out
        assert "injected" in out

    def test_no_fallback_shrinks_matrix(self, capsys):
        assert main([
            "resilience", "--model", "rm1", "--fallback", "none",
            "--queries", "200", "--scenario", "drops",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults + retry" in out
        assert "faults + hedge" not in out  # no standby to hedge to

    def test_trace_export(self, capsys, tmp_path):
        import json

        trace = str(tmp_path / "resilience.trace.json")
        assert main([
            "resilience", "--model", "rm1", "--queries", "200",
            "--scenario", "crash", "--trace", trace,
        ]) == 0
        doc = json.loads(open(trace).read())
        names = {e.get("name", "") for e in doc["traceEvents"]}
        assert any(".batch" in n for n in names)
        assert any(".crash" in n for n in names)
        out = capsys.readouterr().out
        assert "trace:" in out

    def test_unknown_model_exits_cleanly(self):
        with pytest.raises(SystemExit, match="unknown model"):
            main(["resilience", "--model", "bert", "--queries", "50"])


class TestLedgerCommands:
    def _record(self, out_dir, split=False, models=("rm1",)):
        argv = [
            "record", "--models", *models, "--platforms", "broadwell",
            "--batch-size", "64", "--queries", "200", "--seed", "2020",
            "--out", str(out_dir),
        ]
        if split:
            argv.append("--split")
        return main(argv)

    def test_record_appends_jsonl(self, capsys, tmp_path):
        assert self._record(tmp_path / "runs") == 0
        out = capsys.readouterr().out
        assert "rm1|broadwell|b64" in out
        assert (tmp_path / "runs" / "ledger.jsonl").exists()

    def test_record_split_writes_per_record_files(self, capsys, tmp_path):
        assert self._record(tmp_path, split=True) == 0
        assert (tmp_path / "rm1_broadwell_b64.json").exists()

    def test_record_unknown_platform_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown platform"):
            main(["record", "--platforms", "tpu", "--out", str(tmp_path)])

    def test_diff_two_paths_clean(self, capsys, tmp_path):
        self._record(tmp_path / "a")
        capsys.readouterr()
        self._record(tmp_path / "b")
        capsys.readouterr()
        assert main([
            "diff", str(tmp_path / "a"), str(tmp_path / "b"),
            "--fail-on-regression",
        ]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_diff_against_flags_perturbed_record(self, capsys, tmp_path):
        import json

        self._record(tmp_path / "base", split=True)
        self._record(tmp_path / "cand", split=True)
        capsys.readouterr()
        path = tmp_path / "cand" / "rm1_broadwell_b64.json"
        doc = json.loads(path.read_text())
        doc["scalars"]["total_seconds"] *= 2.0
        path.write_text(json.dumps(doc))
        assert main([
            "diff", str(tmp_path / "cand"), "--against",
            str(tmp_path / "base"), "--fail-on-regression",
        ]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        # Without the gate flag the same diff is informational.
        assert main([
            "diff", str(tmp_path / "cand"), "--against", str(tmp_path / "base"),
        ]) == 0

    def test_diff_gate_trips_on_coverage_gap(self, capsys, tmp_path):
        self._record(tmp_path / "base", models=("rm1", "ncf"))
        self._record(tmp_path / "cand", models=("rm1",))
        capsys.readouterr()
        assert main([
            "diff", str(tmp_path / "cand"), "--against",
            str(tmp_path / "base"), "--fail-on-regression",
        ]) == 1
        assert "not covered" in capsys.readouterr().out

    def test_diff_json_format(self, capsys, tmp_path):
        import json

        self._record(tmp_path / "a")
        capsys.readouterr()
        assert main([
            "diff", str(tmp_path / "a"), str(tmp_path / "a"),
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == 0

    def test_diff_needs_candidate_or_against(self, tmp_path):
        self._record(tmp_path / "a")
        with pytest.raises(SystemExit):
            main(["diff", str(tmp_path / "a")])

    def test_diff_missing_path_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no such"):
            main(["diff", str(tmp_path / "nope"), str(tmp_path / "nope")])

    def test_check_pass_warn_fail_exit_codes(self, capsys, tmp_path):
        self._record(tmp_path / "runs")
        capsys.readouterr()
        rules = tmp_path / "slo.toml"
        rules.write_text(
            '[[rule]]\nmetric = "p99_latency_s"\nmax = 1.0\n'
        )
        assert main([
            "check", str(tmp_path / "runs"), "--rules", str(rules),
        ]) == 0
        assert "PASS" in capsys.readouterr().out
        rules.write_text(
            '[[rule]]\nmetric = "p99_latency_s"\nmax = 1e-12\n'
            'severity = "warn"\n'
        )
        assert main([
            "check", str(tmp_path / "runs"), "--rules", str(rules),
        ]) == 1
        capsys.readouterr()
        rules.write_text(
            '[[rule]]\nmetric = "p99_latency_s"\nmax = 1e-12\n'
        )
        assert main([
            "check", str(tmp_path / "runs"), "--rules", str(rules),
        ]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_check_bad_rules_exit_cleanly(self, tmp_path):
        self._record(tmp_path / "runs")
        rules = tmp_path / "bad.toml"
        rules.write_text('[[rule]]\nmetric = "nope"\nmax = 1\n')
        with pytest.raises(SystemExit, match="unknown metric"):
            main(["check", str(tmp_path / "runs"), "--rules", str(rules)])

    def test_committed_ci_gate_passes(self, capsys):
        # The exact gate CI runs, against the committed artifacts.
        assert main([
            "check", "baselines", "--rules", "ci/slo.toml",
        ]) == 0

    def test_sweep_record_dir(self, capsys, tmp_path):
        assert main([
            "sweep", "--models", "rm1", "--batches", "1", "64",
            "--record-dir", str(tmp_path / "led"),
        ]) == 0
        assert "recorded 8 run records" in capsys.readouterr().out
        assert (tmp_path / "led" / "ledger.jsonl").exists()

    def test_resilience_record_dir(self, capsys, tmp_path):
        assert main([
            "resilience", "--model", "rm1", "--queries", "200",
            "--record-dir", str(tmp_path / "led"),
        ]) == 0
        assert "recorded all-policies run" in capsys.readouterr().out
        from repro.ledger import load_records

        records = load_records(tmp_path / "led")
        assert records[0].kind == "resilience"
        assert records[0].has_latency()


class TestTraceSchedulerModes:
    def test_scheduler_mode_exports_batch_spans(self, capsys, tmp_path):
        import json

        out = str(tmp_path / "sched.trace.json")
        assert main([
            "trace", "--scheduler", "--model", "rm1", "--queries", "200",
            "-o", out,
        ]) == 0
        doc = json.loads(open(out).read())
        names = {e.get("name", "") for e in doc["traceEvents"]}
        assert any(".batch" in n for n in names)
        assert "scheduler:" in capsys.readouterr().out

    def test_resilience_mode_exports_fault_spans(self, capsys, tmp_path):
        import json

        out = str(tmp_path / "res.trace.json")
        assert main([
            "trace", "--resilience", "--model", "rm1", "--queries", "200",
            "-o", out,
        ]) == 0
        doc = json.loads(open(out).read())
        names = {e.get("name", "") for e in doc["traceEvents"]}
        assert any(".batch" in n for n in names)
        assert any(".slowdown" in n or ".straggler" in n for n in names)
        assert "injected" in capsys.readouterr().out

    def test_modes_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--scheduler", "--resilience"])


#: sha256 of the full stdout of each scenario subcommand. These pin the
#: rendered output byte for byte, so any refactor of the scenario
#: pipeline behind them must leave every row, digit and key unchanged.
_STDOUT_PINS = [
    (
        ["resilience", "--model", "rm1", "--queries", "300", "--seed", "7",
         "--scenario", "mixed"],
        "38b8f6b5d7c207f592147f69d2246261a34917b57b84230e7be34c4fae1c6393",
    ),
    (
        # No degraded variant and no fallback: the hedge, breaker and
        # degrade rows drop out of the matrix.
        ["resilience", "--model", "ncf", "--fallback", "none",
         "--queries", "200", "--seed", "7", "--scenario", "crash"],
        "2be7dd3b299016b18dd5c3072e155f69216ce5aee45fd530c4119f4f0c8d1e64",
    ),
    (
        ["monitor", "--model", "rm1", "--platform", "t4", "--scenario",
         "slowdown", "--slowdown-multiplier", "5.0"],
        "f04174eb7deac97e16e6e911e5ffa0d797038c159a2f3251bbc37533ee97a573",
    ),
    (
        ["monitor", "--model", "rm1", "--platform", "t4", "--scenario",
         "slowdown", "--slowdown-multiplier", "5.0", "--format", "json"],
        "a2d98844ac9c3b4f75e46c2ba423a3877e1717de202061190c883e30f0908584",
    ),
    (
        ["monitor", "--model", "rm2", "--platform", "broadwell",
         "--scenario", "shard_slowdown", "--queries", "600"],
        "510b0326706d5b71e087aa3339b2e20c3b62d0697043c92c7cb240667a90178d",
    ),
    (
        ["explain", "--what-if", "all", "--format", "json"],
        "eedfb5c93995d27bc2beabb6783b68359faca313b311acc87dbc66a658c54780",
    ),
    (
        ["shard", "--format", "json"],
        "4ddc83bca3b16a8bb61b08e54da12667ccf91ae5fb49df10a0dc31bac176a8a4",
    ),
    (
        # The plain QueryScheduler with the metrics registry on.
        ["metrics", "--model", "rm1", "--queries", "2000"],
        "715f1b820e21c66634f12487a0f6d3764ffbe599dfc5e23d43e3bef6385df0a0",
    ),
]


class TestScenarioOutputPins:
    @pytest.mark.parametrize(
        "argv,digest", _STDOUT_PINS, ids=[" ".join(a) for a, _ in _STDOUT_PINS]
    )
    def test_stdout_digest(self, capsys, argv, digest):
        import hashlib

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out

    def test_trace_resilience_summary_lines(self, capsys, tmp_path):
        # The simulation summary; the exported events are pinned in
        # test_trace_resilience_event_pin.
        assert main([
            "trace", "--resilience", "--model", "rm1", "--queries", "200",
            "-o", str(tmp_path / "res.trace.json"),
        ]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith(("resilience:", "injected:"))
        ]
        assert lines == [
            "resilience: 200/200 completed at 41563 QPS, p50/p99 = "
            "1.619 / 2.349 ms",
            "injected: none",
        ]

    def test_trace_resilience_event_pin(self, tmp_path):
        """The exported trace events: fault windows and ``*.batch``
        spans, in the order the engine emits them."""
        import hashlib
        import json

        out = tmp_path / "res.trace.json"
        assert main([
            "trace", "--resilience", "--model", "rm1", "--queries", "200",
            "-o", str(out),
        ]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        digest = hashlib.sha256(
            json.dumps(events, sort_keys=True).encode()
        ).hexdigest()
        assert digest == (
            "17440db0894a98f3a8e91557a6abd5e3818820d5d70a08e688aa4c3468c07596"
        )


class TestScenarioInputErrors:
    """Bad sizes exit with ``error: ...`` naming the argument instead of
    a traceback deep in the engine or the cost model; scenario sizes are
    checked before any calibration."""

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["monitor", "--queries", "0"], "queries"),
            (["explain", "--queries", "-5"], "queries"),
            (["monitor", "--qps", "-3"], "qps"),
            (["monitor", "--qps", "0"], "qps"),
            (["explain", "--batch-size", "0"], "batch_size"),
            (["monitor", "--window-ms", "0"], "window_s"),
            (["monitor", "--slowdown-multiplier", "inf"], "multiplier"),
            (["resilience", "--queries", "0"], "queries"),
            (["resilience", "--deadline-ms", "0"], "deadline_s"),
            (["shard", "--queries", "0"], "queries"),
            (["shard", "--qps", "0"], "qps"),
            (["trace", "--resilience", "--qps", "-1"], "qps"),
            (["trace", "--scheduler", "--queries", "0"], "queries"),
            (["trace", "--resilience", "--queries", "0"], "queries"),
            (["record", "--qps", "0"], "qps"),
            (["record", "--qps", "-5"], "qps"),
            (["record", "--batch-size", "0"], "batch_size"),
            (["record", "--queries", "-1"], "queries"),
            (["trace", "--qps", "0"], "qps"),
            (["trace", "--queries", "-5"], "queries"),
            (["metrics", "--qps", "nan"], "qps"),
            (["metrics", "--queries", "-5"], "queries"),
            (["shard", "--alpha", "nan"], "alpha"),
            (["explain", "--top-queries", "-3"], "--top-queries"),
            (["characterize", "rm1", "--batch", "0"], "batch_size"),
            (["topdown", "--batch", "-4"], "batch_size"),
            (["breakdown", "rm1", "--batch", "0"], "batch_size"),
            (["sweep", "--batches", "0"], "batch_sizes"),
            (["optimal", "--batches", "0", "-3"], "batch_sizes"),
            (["verify", "--batches", "0", "--models", "rm1"], "--batches"),
            (["verify", "--batches", "-3", "--models", "rm1"], "--batches"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_exits_naming_the_argument(self, argv, name):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value)
        assert message.startswith("error: ") and name in message, message
