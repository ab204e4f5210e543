"""Tests for the windowed serving monitor.

Pins the acceptance scenario — a seeded 5x GPU-throttle window on
rm1/t4 whose p99 excursion and burn-rate alert coincide with the
injected fault window — plus the analysis/burn-rate units, the
fault-off bit-identical guarantee of time-series collection, the
per-replica Perfetto lane layout, and the ``repro monitor`` /
``repro report`` CLI surfaces end to end.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from repro import telemetry
from repro.cli import main
from repro.ledger.slo import SloRule
from repro.monitor import (
    BurnRateConfig,
    classify_regime,
    detect_regime_shifts,
    detect_tail_excursions,
    evaluate_burn_rates,
    run_monitored_scenario,
    scenario_kwargs,
    utilization_series,
    window_error_fractions,
)
from repro.monitor.scenario import (
    ScenarioRecipe,
    build_scenario,
    run_policy_matrix,
)
from repro.telemetry import TimeSeries, TimeSeriesSummary
from repro.telemetry.chrome_trace import (
    REPLICA_LANE_FAULT,
    REPLICA_LANE_HEDGE,
    REPLICA_LANE_SERVE,
    REPLICA_PID_BASE,
    chrome_trace_document,
)

QUERIES = 1200
SEED = 2020
OVERRIDES = {"slowdown_multiplier": 5.0}


@pytest.fixture(scope="module")
def slowdown_run():
    """The acceptance scenario: one 5x GPU-throttle window on rm1/t4."""
    return run_monitored_scenario(
        "rm1", "t4", "slowdown", queries=QUERIES, seed=SEED,
        scenario_overrides=OVERRIDES,
    )


def _fault_window_indices(ms):
    """All window indices any injected fault window touches."""
    indices = set()
    for start, end, _ in ms.fault_windows():
        first = ms.timeseries.window_index(start)
        last = ms.timeseries.window_index(end)
        indices.update(range(first, last + 1))
    return indices


def _tight_rules():
    return [
        SloRule(
            name="p99-tight", metric="p99_latency_s", max=0.003,
            severity="fail", budget=0.01,
        )
    ]


class TestRegimes:
    def test_classify_boundaries(self):
        assert classify_regime(0.0) == "idle"
        assert classify_regime(0.05) == "light"
        assert classify_regime(0.69) == "light"
        assert classify_regime(0.70) == "busy"
        assert classify_regime(0.95) == "saturated"
        assert classify_regime(2.0) == "saturated"

    def _busy_series(self, rhos):
        ts = TimeSeries(window_s=1.0)
        for i, rho in enumerate(rhos):
            ts.count("arrivals", i + 0.5)  # anchor every window
            if rho:
                ts.count_interval("busy_s", i, i + rho)
        return ts

    def test_shift_needs_class_change_and_delta(self):
        # light -> saturated alerts; a small step inside one class, or
        # a class change under the delta floor, stays quiet.
        ts = self._busy_series([0.4, 0.5, 1.0, 1.0, 0.5])
        alerts = detect_regime_shifts(ts.summary())
        assert [(a.start_window, a.end_window) for a in alerts] == [
            (2, 2), (4, 4)
        ]
        assert "light -> saturated" in alerts[0].detail
        assert not alerts[0].fault_correlated

        quiet = self._busy_series([0.60, 0.75, 0.72, 0.71])
        assert detect_regime_shifts(quiet.summary()) == []

    def test_shift_fault_correlation_with_slack(self):
        ts = self._busy_series([0.4, 0.4, 1.0, 1.0])
        ts.count("faults.slowdown", 1.5)  # window 1 — adjacent to shift
        alerts = detect_regime_shifts(ts.summary())
        assert len(alerts) == 1 and alerts[0].fault_correlated

    def test_utilization_series_shape(self):
        ts = self._busy_series([0.25, 0.5])
        assert utilization_series(ts.summary()) == [
            (0, pytest.approx(0.25)), (1, pytest.approx(0.5))
        ]


class TestTailExcursions:
    def _latency_series(self, window_p99s_ms):
        ts = TimeSeries(window_s=1.0)
        for i, p99 in enumerate(window_p99s_ms):
            values = np.full(100, p99 * 1e-3)
            ts.observe_each("latency_s", np.full(100, i + 0.5), values)
        return ts

    def test_hot_window_flagged_against_median(self):
        ts = self._latency_series([1.0, 1.1, 0.9, 5.0, 1.0, 1.05])
        alerts = detect_tail_excursions(ts.summary())
        assert [(a.start_window, a.end_window) for a in alerts] == [(3, 3)]
        assert alerts[0].value == pytest.approx(5e-3)
        assert not alerts[0].fault_correlated

    def test_fault_slack_window(self):
        ts = self._latency_series([1.0, 1.0, 1.0, 5.0, 1.0])
        # Fault activity one window before the excursion: a batch
        # started inside the fault can settle just after it.
        ts.count("faults.slowdown", 2.5)
        alerts = detect_tail_excursions(ts.summary())
        assert len(alerts) == 1 and alerts[0].fault_correlated

    def test_too_few_windows_is_quiet(self):
        ts = self._latency_series([5.0])
        assert detect_tail_excursions(ts.summary()) == []


class TestBurnRate:
    def _burning_series(self, hot=range(8, 11), windows=20):
        # 1 ms baseline everywhere; hot windows send half the queries
        # to 10 ms — far over a 5 ms bound.
        ts = TimeSeries(window_s=1.0)
        for i in range(windows):
            lat = np.full(100, 1e-3)
            if i in hot:
                lat[:50] = 10e-3
            ts.observe_each("latency_s", np.full(100, i + 0.5), lat)
        return ts

    def _rule(self, **kw):
        base = dict(
            name="p99", metric="p99_latency_s", max=5e-3, severity="fail",
            budget=0.01,
        )
        base.update(kw)
        return SloRule(**base)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BurnRateConfig(fast_lookback=0)
        with pytest.raises(ValueError):
            BurnRateConfig(slow_threshold=0.0)

    def test_exact_fractions_from_live_series(self):
        ts = self._burning_series()
        fractions = window_error_fractions(ts, self._rule())
        assert fractions[0] == 0.0
        assert fractions[8] == pytest.approx(0.5)

    def test_summary_fractions_are_stepped_lower_bounds(self):
        ts = self._burning_series()
        summary = TimeSeriesSummary.from_compact_state(ts.compact_state())
        live = window_error_fractions(ts, self._rule())
        bounded = window_error_fractions(summary, self._rule())
        for i in live:
            assert bounded[i] <= live[i] + 1e-12
        # Half the window over the bound means the stored p50 proves
        # exactly the 0.5 step.
        assert bounded[8] == 0.5

    def test_rule_without_max_rejected_and_skipped(self):
        ts = self._burning_series()
        floor_rule = SloRule(
            name="qps", metric="throughput_qps", min=1.0, severity="warn"
        )
        with pytest.raises(ValueError, match="max"):
            window_error_fractions(ts, floor_rule)
        # evaluate_burn_rates skips it (end-of-run check still covers it).
        assert evaluate_burn_rates(ts, [floor_rule]) == []

    def test_non_latency_metric_skipped(self):
        ts = self._burning_series()
        rule = SloRule(
            name="comm", metric="data_comm_fraction", max=0.5, severity="warn"
        )
        assert evaluate_burn_rates(ts, [rule]) == []

    def test_default_budget_is_percentile_slack(self):
        # Without an explicit budget, a p99 rule gets 1 - 0.99 = 0.01:
        # an error fraction of 0.5 burns 50x, tripping both lookbacks.
        ts = self._burning_series()
        rule = self._rule(budget=None)
        alerts = evaluate_burn_rates(ts, [rule])
        kinds = {a.kind for a in alerts}
        assert kinds == {"fast_burn", "slow_burn"}

    def test_fast_burn_fires_on_hot_windows(self):
        ts = self._burning_series()
        alerts = evaluate_burn_rates(ts, [self._rule()])
        fast = [a for a in alerts if a.kind == "fast_burn"]
        assert len(fast) == 1
        a = fast[0]
        # The 3-window trailing mean covers the hot range plus the
        # lookback tail after it.
        assert a.start_window == 8
        assert a.end_window == 12
        assert a.value == pytest.approx(50.0)
        assert a.severity == "fail"
        assert a.rule == "p99"

    def test_quiet_series_no_alerts(self):
        ts = self._burning_series(hot=())
        assert evaluate_burn_rates(ts, [self._rule()]) == []

    def test_empty_source_no_alerts(self):
        assert evaluate_burn_rates(TimeSeries(window_s=1.0), [self._rule()]) == []

    @pytest.mark.parametrize("rules", [1, 2, 5])
    def test_live_series_builds_one_summary(self, monkeypatch, rules):
        """Per-rule error fractions read the live windows, so one pass
        summarizes the series once whatever the number of rules."""
        calls = []
        summary = TimeSeries.summary

        def counted(ts):
            calls.append(ts)
            return summary(ts)

        monkeypatch.setattr(TimeSeries, "summary", counted)
        ts = self._burning_series()
        alerts = evaluate_burn_rates(
            ts, [self._rule(name=f"p99 #{k}") for k in range(rules)]
        )
        assert len(alerts) == 2 * rules
        assert len(calls) == 1


class TestScenarioPipeline:
    """``build_scenario`` is the one place a named scenario becomes a
    fleet, a fault plan and a policy set; the runners only add sinks."""

    @pytest.mark.parametrize(
        "kwargs,error,name",
        [
            (dict(queries=0), ValueError, "queries"),
            (dict(queries=-5), ValueError, "queries"),
            (dict(queries=2.5), TypeError, "queries"),
            (dict(queries=True), TypeError, "queries"),
            (dict(batch_size=0), ValueError, "batch_size"),
            (dict(batch_size=64.0), TypeError, "batch_size"),
            (dict(qps=-3.0), ValueError, "qps"),
            (dict(qps=0.0), ValueError, "qps"),
            (dict(qps=float("nan")), ValueError, "qps"),
            (dict(qps="fast"), TypeError, "qps"),
            (dict(window_s=0.0), ValueError, "window_s"),
            (dict(window_s=float("inf")), ValueError, "window_s"),
            (dict(deadline_s=-1.0), ValueError, "deadline_s"),
            (dict(scenario="meteor"), KeyError, "unknown scenario"),
            (dict(load=0.0), ValueError, "load"),
            (dict(load=float("nan")), ValueError, "load"),
        ],
    )
    def test_rejects_bad_inputs_naming_them(self, monkeypatch, kwargs, error,
                                            name):
        """A recipe checks its fields when it is made, naming the bad
        one, before any model is built or calibrated."""
        import repro.models

        def unbuilt(model_name):
            raise AssertionError("a bad recipe must fail before a build")

        monkeypatch.setattr(repro.models, "build_model", unbuilt)
        with pytest.raises(error, match=name):
            ScenarioRecipe(**{
                "model": "rm1", "platform": "t4", "scenario": "slowdown",
                **kwargs,
            })

    def test_numpy_integer_sizes_accepted(self):
        setup = build_scenario(ScenarioRecipe(
            "rm1", "t4", "slowdown", queries=np.int64(200),
            batch_size=np.int32(64),
        ))
        assert setup.queries == 200 and setup.batch_size == 64

    def test_monitored_run_is_the_setup_plus_sinks(self, slowdown_run):
        setup = build_scenario(ScenarioRecipe(
            "rm1", "t4", "slowdown", queries=QUERIES, seed=SEED,
            scenario_overrides=OVERRIDES,
        ))
        assert setup.qps == slowdown_run.qps
        assert setup.deadline_s == slowdown_run.deadline_s
        assert setup.window_s == slowdown_run.window_s
        assert setup.fault_windows() == slowdown_run.fault_windows()
        bare = setup.scheduler(setup.policy).run(setup.qps, QUERIES)
        assert np.array_equal(
            bare.latencies_s, slowdown_run.result.latencies_s
        )

    @pytest.mark.parametrize(
        "model,platform,fallback",
        [("rm1", "t4", None), ("rm1", "t4", "broadwell"),
         ("rm2", "broadwell", None)],
    )
    def test_calibration_equals_per_batch_profiles(
        self, model, platform, fallback
    ):
        """The one-sweep calibration gives every replica the knots of
        ``ServiceTimeModel.from_profiles`` over per-batch session
        profiles, bit for bit."""
        from repro.models import build_model
        from repro.models.variants import degraded_variant
        from repro.runtime import InferenceSession, ServiceTimeModel

        def reference(variant, where):
            session = InferenceSession(variant, where)
            return ServiceTimeModel.from_profiles(
                [session.profile(b) for b in (1, 16, 64, 128)]
            )

        def knots(stm):
            return (stm.model, stm.platform, stm._batches, stm._times,
                    stm._comm_times)

        built = build_model(model)
        setup = build_scenario(ScenarioRecipe(
            model, platform, "slowdown", queries=200, fallback=fallback
        ))
        primary, *standby = setup.replicas
        assert knots(primary.service_model) == knots(
            reference(built, platform)
        )
        assert knots(primary.degraded_model) == knots(
            reference(degraded_variant(built), platform)
        )
        assert [knots(r.service_model) for r in standby] == [
            knots(reference(built, r.name)) for r in standby
        ]

    def test_second_build_is_a_calibration_memo_hit(self, monkeypatch):
        import repro.gpusim.vectorized as gpu_cells
        import repro.uarch.vectorized as cpu_cells

        recipe = ScenarioRecipe("rm2", "t4", "slowdown", fallback="broadwell")
        build_scenario(recipe)
        calls = []
        for module, name in ((cpu_cells, "profile_cells_cpu"),
                             (gpu_cells, "profile_cells_gpu")):

            def counted(*args, _name=name, _fn=getattr(module, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        again = build_scenario(recipe)
        assert calls == []
        assert [r.name for r in again.replicas] == ["t4", "broadwell"]

    def test_policy_parts_follow_the_fleet(self):
        # rm1 is a DLRM (degraded variant) and has no fallback here.
        setup = build_scenario(
            ScenarioRecipe("rm1", "t4", "crash", queries=200)
        )
        assert setup.policy.degrade is not None
        assert setup.policy.hedge is None and setup.policy.breaker is None
        with_standby = build_scenario(ScenarioRecipe(
            "ncf", "t4", "crash", queries=200, fallback="broadwell"
        ))
        assert with_standby.policy.hedge is not None
        assert with_standby.policy.breaker is not None
        assert with_standby.policy.degrade is None
        assert [r.name for r in with_standby.replicas] == ["t4", "broadwell"]
        assert build_scenario(ScenarioRecipe(
            "ncf", "t4", "crash", queries=200, fallback="None"
        )).fallback is None

    def test_policy_matrix_rows(self):
        matrix = run_policy_matrix(ScenarioRecipe(
            "rm1", "t4", "mixed", queries=300, seed=7, fallback="broadwell"
        ))
        assert list(matrix.rows) == [
            "no faults", "faults, no policy", "faults + retry",
            "faults + hedge", "faults + failover", "faults + degrade/shed",
            "faults + all",
        ]
        assert not any(matrix.rows["no faults"].fault_counts.values())
        # The all-policies row is the monitored run.
        ms = run_monitored_scenario(
            "rm1", "t4", "mixed", queries=300, seed=7, fallback="broadwell"
        )
        assert np.array_equal(
            matrix.rows["faults + all"].latencies_s, ms.result.latencies_s
        )

    def test_policy_matrix_without_fallback_or_degraded_variant(self):
        matrix = run_policy_matrix(ScenarioRecipe(
            "ncf", "t4", "crash", queries=200, seed=7, fallback="none"
        ))
        assert list(matrix.rows) == [
            "no faults", "faults, no policy", "faults + retry", "faults + all",
        ]

    def test_policy_matrix_rejects_shard_scenario(self):
        with pytest.raises(ValueError, match="shard"):
            run_policy_matrix(
                ScenarioRecipe("rm2", "broadwell", "shard_slowdown")
            )


class TestScenarioRecipe:
    """A frozen recipe: read-only fields and overrides, and the entry
    parsed once with the shard layout defaults filled in."""

    def test_frozen_with_read_only_overrides(self):
        overrides = {"slowdown_multiplier": 5.0}
        recipe = ScenarioRecipe(
            "rm1", "t4", "slowdown", fallback="None",
            scenario_overrides=overrides,
        )
        overrides["slowdown_multiplier"] = 9.0
        assert recipe.fallback is None
        assert recipe.faults[1]["slowdown_multiplier"] == 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            recipe.queries = 10
        with pytest.raises(TypeError):
            recipe.scenario_overrides["slowdown_multiplier"] = 9.0

    def test_shard_layout_defaults_fill_unset_keys(self):
        from repro.distserve.scenario import SHARD_LAYOUT_DEFAULTS

        layout, kwargs = ScenarioRecipe(
            "rm2", "broadwell", "shard_slowdown",
            scenario_overrides={"shards": 8},
        ).faults
        assert layout == {**SHARD_LAYOUT_DEFAULTS, "shards": 8}
        assert "shard_faults" not in kwargs and "shards" not in kwargs
        assert ScenarioRecipe("rm1", "t4", "slowdown").faults[0] is None


class TestMonitoredScenario:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            scenario_kwargs("meteor")

    def test_override_merges(self):
        kw = scenario_kwargs("slowdown", slowdown_multiplier=9.0)
        assert kw["slowdown_multiplier"] == 9.0
        assert kw["slowdown_windows"] == 1

    def test_run_is_deterministic(self, slowdown_run):
        again = run_monitored_scenario(
            "rm1", "t4", "slowdown", queries=QUERIES, seed=SEED,
            scenario_overrides=OVERRIDES,
        )
        assert again.timeseries.to_state() == slowdown_run.timeseries.to_state()
        assert np.array_equal(
            again.result.latencies_s, slowdown_run.result.latencies_s
        )

    def test_injects_one_slowdown_window(self, slowdown_run):
        windows = slowdown_run.fault_windows()
        assert len(windows) == 1
        start, end, kind = windows[0]
        assert kind == "t4.slowdown"
        assert 0.0 <= start < end <= slowdown_run.horizon_s

    def test_fault_activity_confined_to_fault_windows(self, slowdown_run):
        summary = slowdown_run.timeseries.summary()
        fault_indices = _fault_window_indices(slowdown_run)
        active = {
            i for i in summary.window_indices() if summary.fault_activity(i)
        }
        assert active
        assert active <= fault_indices

    def test_p99_excursion_coincides_with_fault_window(self, slowdown_run):
        """The acceptance pin: the tail excursion lands in (or within
        one settling window of) the injected throttle window, and is
        flagged fault-correlated."""
        summary = slowdown_run.timeseries.summary()
        alerts = detect_tail_excursions(summary)
        assert alerts, "5x throttle must produce a p99 excursion"
        fault_indices = _fault_window_indices(slowdown_run)
        slack = {i + d for i in fault_indices for d in (-1, 0, 1)}
        for a in alerts:
            assert a.fault_correlated
            assert set(range(a.start_window, a.end_window + 1)) <= slack

    def test_burn_rate_alert_coincides_with_fault_window(self, slowdown_run):
        """The acceptance pin, burn-rate half: a tight p99 rule starts
        burning inside the fault window."""
        alerts = evaluate_burn_rates(
            slowdown_run.timeseries, _tight_rules()
        )
        fast = [a for a in alerts if a.kind == "fast_burn"]
        assert fast
        fault_indices = _fault_window_indices(slowdown_run)
        for a in fast:
            assert a.fault_correlated
            assert a.start_window in fault_indices
            assert a.severity == "fail"

    def test_saturation_shift_is_fault_correlated(self, slowdown_run):
        summary = slowdown_run.timeseries.summary()
        saturating = [
            a for a in detect_regime_shifts(summary)
            if "-> saturated" in a.detail
        ]
        assert saturating
        assert all(a.fault_correlated for a in saturating)

    def test_health_timeline_stays_on_known_states(self, slowdown_run):
        summary = slowdown_run.timeseries.summary()
        seen = set()
        for track in summary.track_names("state"):
            for i in summary.window_indices():
                seen |= set(summary.states(track, i))
        assert seen <= {"healthy", "degraded", "crashed", "breaker_open"}
        assert "healthy" in seen


class TestBitIdentical:
    """Time-series collection must be observational only."""

    @pytest.fixture(scope="class")
    def stm(self):
        from repro.monitor.scenario import service_model_for
        from repro.models import build_model

        return service_model_for(build_model("rm1"), "t4", 64)

    def test_resilient_scheduler_unchanged_by_timeseries(self, stm):
        from repro.resilience import (
            FaultPlan,
            Replica,
            ResiliencePolicy,
            ResilientScheduler,
            RetryPolicy,
        )
        from repro.runtime import BatchingPolicy

        def run(ts, plan):
            sched = ResilientScheduler(
                [Replica("t4", stm)], BatchingPolicy(max_batch=64),
                resilience=ResiliencePolicy(
                    retry=RetryPolicy(deadline_s=0.05, max_retries=1)
                ),
                fault_plan=plan, seed=7, timeseries=ts,
            )
            return sched.run(2000.0, num_queries=400)

        # Fault-off: the pinned acceptance guarantee.
        plain = run(None, None)
        observed = run(TimeSeries(window_s=0.01), None)
        assert np.array_equal(plain.latencies_s, observed.latencies_s)
        assert plain.completed == observed.completed

        # Fault-on: collection is read-only there too.
        plan = FaultPlan.synthesize(
            7, ["t4"], 0.2, slowdown_windows=1, slowdown_multiplier=4.0
        )
        faulted = run(None, plan)
        faulted_obs = run(TimeSeries(window_s=0.01), plan)
        assert np.array_equal(faulted.latencies_s, faulted_obs.latencies_s)
        assert faulted.fault_counts == faulted_obs.fault_counts


class TestReplicaTraceLanes:
    """Hedged/retried attempts get their own stable pid/tid tracks."""

    @pytest.fixture(scope="class")
    def traced(self):
        with telemetry.capture() as (tracer, registry):
            ms = run_monitored_scenario(
                "rm1", "t4", "slowdown", queries=QUERIES, seed=SEED,
                fallback="broadwell", scenario_overrides=OVERRIDES,
            )
        return ms, tracer.sorted_spans()

    def test_replicas_get_distinct_stable_pids(self, traced):
        ms, spans = traced
        assert ms.result.hedges > 0, "fallback run must hedge"
        by_category = {}
        for s in spans:
            by_category.setdefault(s.category, set()).add((s.pid, s.tid))
        serve = by_category["resilience.server"]
        assert serve == {(REPLICA_PID_BASE, REPLICA_LANE_SERVE)}
        # Hedge attempts land on the fallback replica's own process,
        # in the hedge lane — not interleaved with primary serving.
        hedge = by_category["resilience.hedge"]
        assert hedge == {(REPLICA_PID_BASE + 1, REPLICA_LANE_HEDGE)}
        fault = by_category["resilience.fault"]
        assert fault == {(REPLICA_PID_BASE, REPLICA_LANE_FAULT)}

    def test_document_names_replica_processes_and_lanes(self, traced):
        _, spans = traced
        doc = chrome_trace_document(spans, process_name="test")
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        process_names = {
            e["pid"]: e["args"]["name"] for e in meta
            if e["name"] == "process_name"
        }
        assert process_names.get(REPLICA_PID_BASE) == "replica: t4"
        assert process_names.get(REPLICA_PID_BASE + 1) == "replica: broadwell"
        thread_names = {
            (e["pid"], e["tid"]): e["args"]["name"] for e in meta
            if e["name"] == "thread_name"
        }
        assert thread_names[(REPLICA_PID_BASE, REPLICA_LANE_SERVE)] == "serve"
        assert thread_names[(REPLICA_PID_BASE + 1, REPLICA_LANE_HEDGE)] == "hedges"
        assert thread_names[(REPLICA_PID_BASE, REPLICA_LANE_FAULT)] == "faults"


class TestMonitorCli:
    def _rules_file(self, tmp_path):
        rules = tmp_path / "rules.toml"
        rules.write_text(
            "[[rule]]\n"
            'name = "p99-tight"\n'
            'metric = "p99_latency_s"\n'
            "max = 0.003\n"
            "budget = 0.01\n"
            'severity = "fail"\n',
            encoding="utf-8",
        )
        return str(rules)

    def test_monitor_golden_run(self, capsys, tmp_path):
        """The CI smoke invocation: timeline, burn alerts, record,
        dashboard, and the fault-correlation gate, in one pass."""
        ledger = tmp_path / "ledger"
        dash = tmp_path / "dash.html"
        code = main([
            "monitor", "--model", "rm1", "--platform", "t4",
            "--scenario", "slowdown", "--queries", str(QUERIES),
            "--seed", str(SEED), "--slowdown-multiplier", "5.0",
            "--rules", self._rules_file(tmp_path),
            "--record-dir", str(ledger), "--report", str(dash),
            "--expect-fault-alert",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "monitor: rm1/t4, scenario 'slowdown'" in out
        assert "fault-correlated" in out
        assert "fast_burn" in out and "tail_excursion" in out
        assert "injected fault windows:" in out and "t4.slowdown" in out
        html = dash.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>") and "<svg" in html
        # The record carries the compact time-series section.
        from repro.ledger import load_records

        records = load_records(ledger)
        assert len(records) == 1 and records[0].has_timeseries()
        assert records[0].kind == "monitor"
        summary = records[0].timeseries_summary()
        assert summary.window_indices()

        # Golden second half: `repro report` re-renders the persisted
        # record, re-detecting the fault-correlated excursion from the
        # compact summary alone.
        assert main(["report", str(ledger)]) == 0
        md = capsys.readouterr().out
        assert md.startswith("# monitor:")
        assert "tail_excursion" in md and "[fault-correlated]" in md
        assert "| w | t (s) |" in md

    def test_monitor_json_and_expectation_failure(self, capsys, tmp_path):
        # A fault-free scenario cannot raise a fault-correlated alert:
        # --expect-fault-alert must fail, and the JSON document must
        # carry no fault activity at all.
        code = main([
            "monitor", "--model", "rm1", "--platform", "t4",
            "--scenario", "drops", "--queries", "400",
            "--seed", str(SEED), "--format", "json",
            "--expect-fault-alert",
        ])
        out = capsys.readouterr().out
        doc = json.loads(out)
        has_fault_alert = any(
            a["fault_correlated"] for a in doc["alerts"]
        )
        assert code == (0 if has_fault_alert else 1)
        assert doc["windows"], "JSON document must carry the timeline"
        assert doc["meta"]["scenario"] == "drops"

    def test_evicted_windows_warn(self, capsys, monkeypatch):
        """A ring buffer smaller than the run's windows warns in the
        text output; the default cap evicts nothing and stays silent."""
        import functools

        import repro.monitor.scenario as scenario_module

        args = [
            "monitor", "--model", "rm1", "--platform", "t4",
            "--scenario", "slowdown", "--queries", "400",
            "--seed", str(SEED),
        ]
        assert main(args) == 0
        assert "warning:" not in capsys.readouterr().out
        monkeypatch.setattr(
            scenario_module, "TimeSeries",
            functools.partial(TimeSeries, max_windows=8),
        )
        assert main(args) == 0
        out = capsys.readouterr().out
        found = re.search(
            r"warning: (\d+) oldest telemetry windows evicted .*"
            r"max_windows 8", out,
        )
        assert found and int(found.group(1)) > 0

    def test_report_rejects_record_without_timeseries(self, tmp_path, capsys):
        from repro.ledger import RunLedger, record_run

        ledger = RunLedger(tmp_path / "plain")
        ledger.append(record_run("ncf", "broadwell", batch_size=16, queries=0))
        with pytest.raises(SystemExit, match="no record"):
            main(["report", str(tmp_path / "plain")])

    def test_report_html_output(self, tmp_path, capsys):
        from repro.ledger import RunLedger, fingerprint_for, record_schedule

        ms = run_monitored_scenario(
            "rm1", "t4", "slowdown", queries=400, seed=SEED,
        )
        record = record_schedule(
            ms.result, fingerprint_for("rm1", "t4", 64, SEED), max_batch=64,
            kind="monitor", timeseries=ms.timeseries,
        )
        RunLedger(tmp_path / "runs").append(record)
        out_path = tmp_path / "dash.html"
        assert main([
            "report", str(tmp_path / "runs"), "-o", str(out_path),
        ]) == 0
        assert "dashboard:" in capsys.readouterr().out
        html = out_path.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert "Windowed timeline" in html

    def test_report_html_output_shard_scenario(self, tmp_path, capsys):
        # The replica golden above only covers replica fault plans;
        # shard scenarios record shard-server fault activity tracks
        # (shard.<name>.*) and must render through the same HTML path.
        from repro.ledger import RunLedger, fingerprint_for, record_schedule

        ms = run_monitored_scenario(
            "rm2", "broadwell", "shard_slowdown", queries=400, seed=SEED,
        )
        assert ms.fault_windows(), "shard scenario must inject faults"
        assert all(
            kind.startswith("shard") for _, _, kind in ms.fault_windows()
        )
        record = record_schedule(
            ms.result, fingerprint_for("rm2", "broadwell", 64, SEED),
            max_batch=64, kind="monitor", timeseries=ms.timeseries,
        )
        RunLedger(tmp_path / "runs").append(record)
        out_path = tmp_path / "shard-dash.html"
        assert main([
            "report", str(tmp_path / "runs"), "-o", str(out_path),
        ]) == 0
        assert "dashboard:" in capsys.readouterr().out
        html = out_path.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert "Windowed timeline" in html and "<svg" in html
        # The fault-activity and shard-health tracks survive the
        # compact round-trip (the former drives the reconstructed
        # fault windows, the latter the health column).
        summary = record.timeseries_summary()
        assert "faults.window_active_s" in summary.fault_tracks()
        assert any(
            t.startswith("shard.") for t in summary.track_names()
        ), f"expected a shard state track, got {summary.track_names()}"
