"""Tests for the run ledger (repro.ledger): records, diffs, SLO rules."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.ledger import (
    LATENCY_HISTOGRAM,
    OCCUPANCY_HISTOGRAM,
    ConfigFingerprint,
    RunLedger,
    RunRecord,
    SchemaVersionError,
    SLO_METRICS,
    diff_against_baselines,
    diff_records,
    evaluate,
    fingerprint_for,
    load_records,
    load_rules,
    parse_rules,
    platform_key,
    record_run,
    record_schedule,
    record_sweep,
)
from repro.telemetry import StreamingHistogram

BASELINES_DIR = Path(__file__).resolve().parent.parent / "baselines"


@pytest.fixture(scope="module")
def serve_record():
    """One full-stack record (profile + scheduler sim), reused read-only."""
    return record_run("rm1", "broadwell", batch_size=64, seed=2020, queries=200)


def _copy(record):
    return RunRecord.from_json(record.to_json())


def _inject_operator_slowdown(record, op, factor=2.0, slot="memory_bound"):
    """Simulate `op` getting `factor`x slower, pressure landing on `slot`."""
    perturbed = _copy(record)
    extra = perturbed.op_seconds[op] * (factor - 1.0)
    perturbed.op_seconds[op] += extra
    perturbed.scalars["total_seconds"] += extra
    if perturbed.topdown is not None:
        shift = 0.2
        perturbed.topdown[slot] += shift
        perturbed.topdown["retiring"] -= 0.75 * shift
        perturbed.topdown["frontend_bound"] -= 0.25 * shift
    return perturbed


class TestFingerprint:
    def test_platform_key_canonicalizes_aliases(self):
        assert platform_key("broadwell") == "broadwell"
        assert platform_key("bdw") == "broadwell"
        assert platform_key("clx") == "cascade_lake"
        assert platform_key("turing") == "t4"

    def test_aliases_produce_matching_fingerprints(self):
        a = fingerprint_for("rm1", "bdw", 64, seed=1)
        b = fingerprint_for("rm1", "broadwell", 64, seed=1)
        assert a.key == b.key == "rm1|broadwell|b64"

    def test_signature_is_structural_not_salted(self):
        a = fingerprint_for("rm1", "broadwell", 64)
        b = fingerprint_for("rm1", "broadwell", 64)
        assert a.graph_signature == b.graph_signature
        c = fingerprint_for("rm2", "broadwell", 64)
        assert c.graph_signature != a.graph_signature

    def test_slug_is_filesystem_safe(self):
        fp = ConfigFingerprint("rm1", "broadwell", 64, 0, "x", "0")
        assert fp.slug == "rm1_broadwell_b64"


class TestRunRecord:
    def test_json_round_trip_is_byte_stable(self, serve_record):
        text = serve_record.to_json()
        restored = RunRecord.from_json(text)
        assert restored.to_json() == text
        assert restored.fingerprint == serve_record.fingerprint
        assert restored.percentile(99.0) == serve_record.percentile(99.0)

    def test_recording_is_deterministic(self, serve_record):
        again = record_run(
            "rm1", "broadwell", batch_size=64, seed=2020, queries=200
        )
        assert again.to_json() == serve_record.to_json()

    def test_carries_every_stack_level(self, serve_record):
        assert serve_record.kind == "serve"
        assert serve_record.scalars["total_seconds"] > 0
        assert serve_record.op_seconds  # operator level
        assert serve_record.topdown is not None  # uarch level
        assert serve_record.has_latency()  # serving level
        assert OCCUPANCY_HISTOGRAM in serve_record.histograms
        assert serve_record.metrics  # telemetry snapshot rides along

    def test_schema_version_bump_rejected_with_clear_error(self, serve_record):
        data = json.loads(serve_record.to_json())
        data["schema_version"] = 99
        with pytest.raises(SchemaVersionError) as err:
            RunRecord.from_dict(data)
        assert "schema version 99" in str(err.value)
        assert str(SCHEMA_VERSION_EXPECTED) in str(err.value)

    def test_missing_schema_version_rejected(self, serve_record):
        data = json.loads(serve_record.to_json())
        del data["schema_version"]
        with pytest.raises(SchemaVersionError):
            RunRecord.from_dict(data)

    def test_invalid_json_rejected(self):
        with pytest.raises(ValueError, match="JSON"):
            RunRecord.from_json("{not json")
        with pytest.raises(ValueError, match="object"):
            RunRecord.from_json("[1, 2]")

    def test_profile_only_record_has_no_latency(self):
        rec = record_run("ncf", "broadwell", batch_size=16, queries=0)
        assert rec.kind == "profile"
        assert not rec.has_latency()
        with pytest.raises(KeyError):
            rec.histogram(LATENCY_HISTOGRAM)


SCHEMA_VERSION_EXPECTED = 3  # v3: optional critical-path attribution section


class TestStore:
    def test_append_and_load_jsonl(self, tmp_path, serve_record):
        ledger = RunLedger(tmp_path / "runs")
        ledger.append(serve_record)
        ledger.append(serve_record)
        records = ledger.records()
        assert len(records) == 2
        assert records[0].to_json() == serve_record.to_json()

    def test_split_write_and_directory_load(self, tmp_path, serve_record):
        ledger = RunLedger(tmp_path)
        path = ledger.write(serve_record)
        assert path.name == "rm1_broadwell_b64.json"
        records = load_records(tmp_path)
        assert len(records) == 1
        assert records[0].to_json() == serve_record.to_json()

    def test_latest_by_key(self, tmp_path, serve_record):
        ledger = RunLedger(tmp_path)
        ledger.append(serve_record)
        assert ledger.latest("rm1|broadwell|b64") is not None
        assert ledger.latest("nope|x|b1") is None

    def test_missing_and_empty_paths_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_records(tmp_path / "nope")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(FileNotFoundError):
            load_records(empty)

    def test_malformed_file_names_offending_path(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        with pytest.raises(ValueError, match="bad.json"):
            load_records(tmp_path)


class TestDiff:
    def test_identical_records_diff_clean(self, serve_record):
        diff = diff_records(serve_record, _copy(serve_record))
        assert diff.clean
        assert not diff.significant
        assert not diff.caveats

    def test_flags_synthetic_2x_regression(self, serve_record):
        slow = _inject_operator_slowdown(
            serve_record, "SparseLengthsSum", factor=2.0
        )
        diff = diff_records(serve_record, slow)
        assert not diff.clean
        metrics = {(e.level, e.metric) for e in diff.regressions}
        assert ("end_to_end", "total_seconds") in metrics
        assert ("operator", "SparseLengthsSum") in metrics

    def test_attributes_slowdown_to_op_kind_and_pipeline_level(
        self, serve_record
    ):
        slow = _inject_operator_slowdown(
            serve_record, "SparseLengthsSum", factor=2.0, slot="memory_bound"
        )
        diff = diff_records(serve_record, slow)
        attribution = "\n".join(diff.attribute())
        assert "SparseLengthsSum" in attribution
        assert "memory_bound" in attribution
        levels = {e.level for e in diff.regressions}
        assert {"end_to_end", "operator", "topdown"} <= levels

    def test_silent_under_pure_noise_within_tolerance(self, serve_record):
        rng = np.random.default_rng(42)
        noisy = _copy(serve_record)
        for scope in (noisy.scalars, noisy.op_seconds):
            for key in sorted(scope):
                scope[key] *= 1.0 + float(rng.uniform(-0.02, 0.02))
        diff = diff_records(serve_record, noisy, tolerance=0.05)
        assert diff.clean
        assert not diff.significant

    def test_tolerance_is_configurable(self, serve_record):
        bumped = _copy(serve_record)
        bumped.scalars["total_seconds"] *= 1.08
        assert not diff_records(serve_record, bumped, tolerance=0.05).clean
        assert diff_records(serve_record, bumped, tolerance=0.10).clean

    def test_improvement_is_not_a_regression(self, serve_record):
        faster = _copy(serve_record)
        faster.scalars["total_seconds"] *= 0.5
        diff = diff_records(serve_record, faster)
        assert diff.clean
        assert any(
            e.metric == "total_seconds" for e in diff.improvements
        )

    def test_throughput_drop_is_a_regression(self, serve_record):
        slower = _copy(serve_record)
        slower.scalars["throughput_qps"] *= 0.5
        diff = diff_records(serve_record, slower)
        assert any(e.metric == "throughput_qps" for e in diff.regressions)

    def test_latency_level_from_histogram_state(self, serve_record):
        worse = _copy(serve_record)
        hist = StreamingHistogram()
        base = serve_record.histogram(LATENCY_HISTOGRAM)
        rng = np.random.default_rng(3)
        hist.observe_many(
            np.asarray(
                [base.quantile(float(q)) * 3.0
                 for q in rng.uniform(1, 99, size=200)]
            )
        )
        worse.histograms[LATENCY_HISTOGRAM] = hist.to_state()
        diff = diff_records(serve_record, worse)
        assert any(e.level == "latency" for e in diff.regressions)

    def test_signature_drift_raises_caveat(self, serve_record):
        other = _copy(serve_record)
        object.__setattr__(other.fingerprint, "graph_signature", "deadbeef")
        diff = diff_records(serve_record, other)
        assert any("graph signature drift" in c for c in diff.caveats)

    def test_against_baselines_matching_and_gaps(self, serve_record):
        other = record_run(
            "ncf", "broadwell", batch_size=64, seed=2020, queries=200
        )
        diffs, unmatched = diff_against_baselines(
            [serve_record], [serve_record, other]
        )
        assert len(diffs) == 1 and diffs[0].clean
        assert any("not covered" in u for u in unmatched)
        diffs, unmatched = diff_against_baselines([other], [serve_record])
        assert not diffs
        assert any("no baseline" in u for u in unmatched)

    def test_negative_tolerance_rejected(self, serve_record):
        with pytest.raises(ValueError):
            diff_records(serve_record, serve_record, tolerance=-0.1)

    def test_render_and_json_forms(self, serve_record):
        slow = _inject_operator_slowdown(serve_record, "SparseLengthsSum")
        diff = diff_records(serve_record, slow)
        text = diff.render_text()
        assert "REGRESSION" in text
        payload = json.loads(diff.to_json())
        assert payload["clean"] is False
        assert payload["entries"]


def _resilience_record():
    from repro.core import SlaBudget
    from repro.models import build_model
    from repro.resilience import (
        FaultPlan,
        Replica,
        ResiliencePolicy,
        ResilientScheduler,
        RetryPolicy,
        SheddingPolicy,
    )
    from repro.runtime import BatchingPolicy, InferenceSession, ServiceTimeModel

    model = build_model("rm1")
    session = InferenceSession(model, "broadwell")
    stm = ServiceTimeModel.from_profiles(
        [session.profile(b) for b in (1, 16, 64, 128)]
    )
    deadline = max(10.0 * stm.seconds(64), 0.02)
    qps = 0.5 * 64 / stm.seconds(64)
    plan = FaultPlan.synthesize(
        2020, ["broadwell"], 300 / qps,
        slowdown_windows=1, slowdown_multiplier=4.0, drop_probability=0.05,
    )
    policy = ResiliencePolicy(
        retry=RetryPolicy(deadline_s=deadline, max_retries=2),
        shed=SheddingPolicy(deadline_s=deadline),
    )
    scheduler = ResilientScheduler(
        [Replica("broadwell", stm)], BatchingPolicy(max_batch=64),
        resilience=policy, fault_plan=plan, seed=2020,
    )
    result = scheduler.run(qps, num_queries=300)
    return record_schedule(
        result, fingerprint_for(model, "broadwell", 64, 2020),
        max_batch=64, kind="resilience",
    )


class TestSlo:
    def test_rules_file_covering_every_metric_kind(self, tmp_path,
                                                   serve_record):
        """One [[rule]] per supported metric; none may error, and every
        metric must be extractable from at least one record kind."""
        lines = []
        for metric in sorted(SLO_METRICS):
            lines += [
                "[[rule]]",
                f'name = "{metric} bound"',
                f'metric = "{metric}"',
                "max = 1e12",
                "min = -1e12",
                'severity = "warn"',
                "",
            ]
        rules_path = tmp_path / "all.toml"
        rules_path.write_text("\n".join(lines))
        rules = load_rules(rules_path)
        assert len(rules) == len(SLO_METRICS)
        report = evaluate(rules, [serve_record, _resilience_record()])
        assert report.exit_code() == 0
        covered = {
            c.rule.metric for c in report.checks if c.status == "pass"
        }
        assert covered == set(SLO_METRICS)

    def test_fail_warn_pass_exit_codes(self, serve_record):
        passing = parse_rules(
            '[[rule]]\nmetric = "p99_latency_s"\nmax = 1e9\n'
        )
        warning = parse_rules(
            '[[rule]]\nmetric = "p99_latency_s"\nmax = 1e-12\n'
            'severity = "warn"\n'
        )
        failing = parse_rules(
            '[[rule]]\nmetric = "p99_latency_s"\nmax = 1e-12\n'
        )
        assert evaluate(passing, serve_record).exit_code() == 0
        assert evaluate(warning, serve_record).exit_code() == 1
        assert evaluate(failing, serve_record).exit_code() == 2

    def test_absent_metric_is_skipped_not_failed(self):
        profile_only = record_run("ncf", "broadwell", batch_size=16, queries=0)
        rules = parse_rules(
            '[[rule]]\nmetric = "shed_rate"\nmax = 0.0\n'
        )
        report = evaluate(rules, profile_only)
        assert report.exit_code() == 0
        assert report.checks[0].status == "skipped"

    def test_model_platform_filters(self, serve_record):
        rules = parse_rules(
            '[[rule]]\nmetric = "p99_latency_s"\nmax = 1e-12\n'
            'model = "rm*"\nplatform = "t4"\n'
        )
        # Filter excludes broadwell record entirely: no checks at all.
        assert evaluate(rules, serve_record).checks == []

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            parse_rules('[[rule]]\nmetric = "nope"\nmax = 1.0\n')

    def test_rule_without_bounds_rejected(self):
        with pytest.raises(ValueError, match="neither"):
            parse_rules('[[rule]]\nmetric = "ipc"\n')

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            parse_rules('[[rule]]\nmetric = "ipc"\nmin = 1\nfoo = 2\n')

    def test_empty_rules_rejected(self):
        with pytest.raises(ValueError, match="no \\[\\[rule\\]\\]"):
            parse_rules("# just a comment\n")

    def test_subset_parser_matches_tomllib(self, monkeypatch):
        import repro.ledger.slo as slo

        if slo.tomllib is None:  # pragma: no cover - py3.10 path
            pytest.skip("tomllib unavailable; fallback is the only parser")
        text = (
            '# header comment\n'
            '[[rule]]\n'
            'name = "tail"\n'
            'metric = "p99_latency_s"\n'
            'max = 0.05  # trailing comment\n'
            'severity = "warn"\n'
            '\n'
            '[[rule]]\n'
            'metric = "ipc"\n'
            'min = 1\n'
            'model = "rm*"\n'
        )
        with_tomllib = slo.parse_rules(text)
        monkeypatch.setattr(slo, "tomllib", None)
        assert slo.parse_rules(text) == with_tomllib


class TestCommittedBaselines:
    """The CI regression gate, demonstrated end to end on baselines/."""

    def test_baselines_exist_for_suite_on_both_cpus(self):
        records = load_records(BASELINES_DIR)
        keys = {r.fingerprint.key for r in records}
        assert len(records) == 16
        for model in ("ncf", "rm1", "rm2", "rm3", "wnd", "mtwnd", "din",
                      "dien"):
            for cpu in ("broadwell", "cascade_lake"):
                assert f"{model}|{cpu}|b64" in keys
        assert all(r.fingerprint.seed == 2020 for r in records)
        assert all(r.fingerprint.batch_size == 64 for r in records)

    def test_fresh_measurement_matches_committed_baselines(self):
        baselines = load_records(BASELINES_DIR)
        fresh = record_run(
            "rm2", "cascade_lake", batch_size=64, seed=2020, queries=300
        )
        diffs, _ = diff_against_baselines([fresh], baselines)
        assert len(diffs) == 1
        assert diffs[0].clean, diffs[0].render_text()
        assert not diffs[0].significant

    def test_gate_fails_on_deliberately_perturbed_record(self):
        baselines = load_records(BASELINES_DIR)
        perturbed = _inject_operator_slowdown(
            baselines[0], max(baselines[0].op_seconds,
                              key=baselines[0].op_seconds.get),
        )
        diffs, _ = diff_against_baselines([perturbed], baselines)
        assert len(diffs) == 1
        assert not diffs[0].clean

    def test_committed_slo_rules_pass_on_baselines(self):
        rules = load_rules(
            BASELINES_DIR.parent / "ci" / "slo.toml"
        )
        report = evaluate(rules, load_records(BASELINES_DIR))
        assert report.exit_code() == 0, report.render_text()


class TestRecordSweep:
    def test_one_record_per_cell(self):
        from repro.core import SpeedupStudy
        from repro.models import build_model

        sweep = SpeedupStudy(
            models={"rm1": build_model("rm1")}, batch_sizes=[1, 64]
        ).run()
        records = record_sweep(sweep, seed=7)
        assert len(records) == 2 * len(sweep.platform_names)
        assert all(r.kind == "profile" for r in records)
        assert all(r.fingerprint.seed == 7 for r in records)
        keys = {r.fingerprint.key for r in records}
        assert "rm1|broadwell|b1" in keys
        assert "rm1|gtx1080ti|b64" in keys
