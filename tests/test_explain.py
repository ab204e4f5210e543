"""Tests for per-query critical-path capture and ``repro explain``.

Pins the tentpole contracts: capture is strictly observational (bit-
identical schedules with capture on or off, across the resilient
scheduler and the sharded gather path), every completed
query is kept and its decomposition sums *exactly* (``==``) to its
measured latency, the capture's memory per query stays bounded, and the
acceptance scenario — the 5x GPU throttle — attributes its p99 to the
fault-correlated service component with a what-if bound consistent with
an actual fault-disabled rerun. The ``repro explain`` CLI surfaces
(text/json, HTML report, Perfetto flow events, ledger records and
attribution diffs) ride along.
"""

import gc
import json
import math
import tracemalloc
from collections.abc import Sequence
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.explain import Explanation, explain_scenario, render_html
from repro.ledger import diff_records, load_records
from repro.models import build_model
from repro.monitor import run_monitored_scenario
from repro.monitor.scenario import (
    SCENARIOS,
    ScenarioRecipe,
    build_scenario,
    service_model_for,
)
from repro.resilience import Replica, ResilientScheduler
from repro.runtime import BatchingPolicy
from repro.telemetry import querytrace, runlog
from repro.telemetry.chrome_trace import (
    load_chrome_trace,
    querytrace_flow_events,
    write_chrome_trace,
)
from repro.telemetry.querytrace import (
    COMPONENTS,
    AttemptEvent,
    QueryTraceCapture,
    ServiceParts,
    decompose_attempts,
)
from repro.telemetry.runlog import RunLog

QUERIES = 1200
SEED = 2020
THROTTLE = {"slowdown_multiplier": 5.0}


@pytest.fixture(scope="module")
def throttle():
    """The acceptance scenario: one 5x GPU-throttle window on rm1/t4."""
    return explain_scenario(
        "rm1", "t4", "slowdown", queries=QUERIES, seed=SEED,
        scenario_overrides=THROTTLE,
    )


@pytest.fixture(scope="module")
def shard_run():
    """The sharded-gather scenario: per-shard annotation must survive."""
    return explain_scenario(
        "rm2", "broadwell", "shard_slowdown", queries=600, seed=SEED,
    )


def _one_replica(stm, policy, capture):
    """The plain loop's run with a capture attached: a fault-free
    engine with one replica named after the platform."""
    return ResilientScheduler(
        [Replica(stm.platform, stm)], policy, seed=SEED, querytrace=capture
    )


def _monitored(scenario, *, capture, queries=600, **kwargs):
    return run_monitored_scenario(
        "rm1", "t4", scenario, queries=queries, seed=SEED,
        querytrace=capture, **kwargs,
    )


class TestObservational:
    """Capture on vs off must be bit-identical — the PR 6 contract."""

    def test_resilient_scheduler_bit_identical(self):
        base = _monitored("mixed", capture=None, fallback="gtx1080ti")
        qt = QueryTraceCapture()
        traced = _monitored("mixed", capture=qt, fallback="gtx1080ti")
        assert np.array_equal(
            base.result.latencies_s, traced.result.latencies_s
        )
        assert base.result.batch_sizes == traced.result.batch_sizes
        assert base.result.hedges == traced.result.hedges
        assert len(qt.records) == traced.result.completed

    def test_shard_gather_bit_identical(self):
        def run(capture):
            return run_monitored_scenario(
                "rm2", "broadwell", "shard_slowdown",
                queries=400, seed=SEED, querytrace=capture,
            )

        base = run(None)
        qt = QueryTraceCapture()
        traced = run(qt)
        assert np.array_equal(
            base.result.latencies_s, traced.result.latencies_s
        )
        assert base.result.gather_counts == traced.result.gather_counts


class TestConservation:
    """Every decomposition sums exactly to its measured latency."""

    @pytest.mark.parametrize("seed", [7, 123, 2020])
    @pytest.mark.parametrize("scenario,overrides", [
        ("slowdown", THROTTLE),
        ("mixed", None),
    ])
    def test_exact_sum_across_runs(self, scenario, overrides, seed):
        qt = QueryTraceCapture()
        ms = run_monitored_scenario(
            "rm1", "t4", scenario, queries=400, seed=seed,
            querytrace=qt, scenario_overrides=overrides,
        )
        assert len(qt.records) == ms.result.completed
        for rec in qt.records.values():
            assert rec.conservation_ok()
            assert all(rec.components[k] >= 0.0 for k in COMPONENTS)

    def test_intervals_cover_arrival_to_completion(self, throttle):
        exp, _ = throttle
        for rec in exp.records:
            assert rec.intervals[0][1] == rec.arrival
            assert rec.intervals[-1][2] == rec.completion
            for prev, cur in zip(rec.intervals, rec.intervals[1:]):
                assert cur[1] == prev[2]  # contiguous, no gaps/overlap
            assert all(hi > lo for _, lo, hi, _ in rec.intervals)

    @given(
        arrival=st.floats(0.0, 10.0, allow_nan=False),
        queue_w=st.floats(0.0, 1e-2),
        batch_w=st.floats(0.0, 1e-2),
        service_w=st.floats(1e-7, 1e-1),
    )
    @settings(max_examples=200, deadline=None)
    def test_balance_property(self, arrival, queue_w, batch_w, service_w):
        """The residue balancer holds on adversarial float chains."""
        ready = arrival + queue_w
        close = ready + batch_w
        completion = close + service_w
        latency = completion - arrival  # telescoped, ulps of residue
        attempt = AttemptEvent(
            attempt=0, ready=ready, batch_close=close, start=close,
            end=completion, outcome="completed", server="t4",
            server_index=0, lane=0,
            parts=ServiceParts(base_s=service_w),
        )
        comps, _, _ = decompose_attempts(
            arrival, completion, latency, [attempt]
        )
        assert math.fsum(comps[k] for k in COMPONENTS) == latency


class TestKeepAll:
    """Every completed query is kept, in bounded memory per query."""

    @staticmethod
    def _bytes_per_query(queries):
        """Bytes a capture holds after a fault-free one-replica rm1/t4
        run at 0.7x peak, per completed query: what deleting it frees,
        with the result still alive."""
        stm = service_model_for(build_model("rm1"), "t4", 64)
        policy = BatchingPolicy(max_batch=64, batch_timeout_s=0.002)
        qps = 0.7 * policy.max_batch / stm.seconds(policy.max_batch)
        gc.collect()
        tracemalloc.start()
        try:
            capture = QueryTraceCapture()
            result = _one_replica(stm, policy, capture).run(qps, queries)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            completed = capture.completed
            del capture
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert completed == len(result.latencies_s) == queries
        return freed / completed

    def test_memory_per_query_bounded(self):
        small = self._bytes_per_query(10_000)
        large = self._bytes_per_query(20_000)
        assert small <= 256 and large <= 256, (small, large)
        # No growth with the run size; the typed arrays over-allocate
        # as they grow, hence a few percent of slack.
        assert large <= 1.05 * small, (small, large)

    def test_capture_records_one_run(self):
        """A second run on a used capture is refused, so no view of the
        first run ever reads another run's rows."""
        qt = QueryTraceCapture()
        first = _monitored("slowdown", capture=qt, scenario_overrides=THROTTLE)
        exp = Explanation(qt, first.result)
        top, view = exp.top_queries(3), exp.records[0]
        state = (view.qid, view.latency, view.components, view.attempts)
        with pytest.raises(RuntimeError, match="records one run"):
            _monitored("crash", capture=qt, queries=300)
        assert exp.top_queries(3) == top
        assert (view.qid, view.latency, view.components, view.attempts) == state
        assert len(qt.records) == qt.completed == first.result.completed

    def test_explanation_memory_per_query_bounded(self):
        """What an ``Explanation`` keeps, and its peak over the views the
        CLI renders, per completed query of a 10k-query 5x throttle run:
        the capture's columns are read in place, fault overlap is kept
        only for queries that have any, and record views are built on
        demand."""
        qt = QueryTraceCapture()
        ms = _monitored(
            "slowdown", capture=qt, queries=10_000,
            scenario_overrides=THROTTLE,
        )
        gc.collect()
        tracemalloc.start()
        try:
            exp = Explanation(
                qt, ms.result, fault_windows=ms.fault_windows(),
                fault_slack_s=ms.window_s,
            )
            exp.to_dict()
            exp.what_if_table(99.0)
            exp.attribution_section()
            gc.collect()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exp.fault_attribution(99.0)["ok"]
        retained, peak = held / qt.completed, peak / qt.completed
        assert retained <= 80 and peak <= 170, (retained, peak)

    def test_keeps_every_query_above_ten_thousand(self):
        qt = QueryTraceCapture()
        ms = _monitored(
            "slowdown", capture=qt, queries=12_000,
            scenario_overrides=THROTTLE,
        )
        assert ms.result.completed > 10_000
        assert len(qt.records) == qt.completed == ms.result.completed
        assert all(r.conservation_ok() for r in qt.records.values())


def _columns_state(capture):
    """Every column's bytes, the shard names and the shed and drop
    counts: the whole state a replay leaves in a capture."""
    return (
        {name: col.tobytes() for name, col in capture.columns().items()},
        capture.shard_names, capture.shed_queries, capture.dropped_queries,
    )


def _scenario_run(model, platform, scenario, fallback):
    def run(capture):
        setup = build_scenario(ScenarioRecipe(
            model, platform, scenario, queries=2500, fallback=fallback
        ))
        setup.scheduler(setup.policy, querytrace=capture).run(
            setup.qps, setup.queries
        )
    return run


def _requeued_run(scenario, deadline_s, parts):
    def run(capture):
        setup = build_scenario(ScenarioRecipe(
            "rm1", "t4", scenario, queries=3000, fallback=None, load=0.7,
            deadline_s=deadline_s,
        ))
        setup.scheduler(setup.policy_with(*parts), querytrace=capture).run(
            setup.qps, setup.queries
        )
    return run


def _plain_run(max_batch):
    def run(capture):
        stm = service_model_for(build_model("rm1"), "t4", 64)
        policy = BatchingPolicy(max_batch=max_batch, batch_timeout_s=0.002)
        qps = 0.7 * max_batch / stm.seconds(max_batch)
        _one_replica(stm, policy, capture).run(qps, 2500)
    return run


#: Runs whose columnar replay must equal the forced scalar walk: every
#: scenario on rm1/t4 with and without a fallback (hedge legs) and on
#: rm2/broadwell (shard gathers), the requeued-work runs of the serving
#: pins (parked, retried, dropped and shed queries), and the plain
#: loop's runs on one fault-free replica.
_WALK_RUNS = {
    **{
        f"{scenario}-{model}-{platform}-{fallback}": _scenario_run(
            model, platform, scenario, fallback
        )
        for scenario in sorted(SCENARIOS)
        for model, platform, fallback in (
            ("rm1", "t4", None), ("rm1", "t4", "broadwell"),
            ("rm2", "broadwell", None),
        )
    },
    "requeued-crash": _requeued_run("crash", 0.004, ("retry",)),
    "requeued-mixed": _requeued_run(
        "mixed", None, ("retry", "shed", "degrade")
    ),
    **{f"plain-{b}": _plain_run(b) for b in (1, 8, 64)},
}

_WIDTH = st.floats(0.0, 1e-2)
_MAYBE = st.one_of(st.just(0.0), _WIDTH)
#: Where a point lies from the one before: on it, before it or after.
_OFFSET = st.one_of(st.just(0.0), st.floats(-2e-3, 1e-2))


@st.composite
def _settled_query(draw):
    """One settled query: its winning attempt's times and service
    parts, its latency a few ulps off the telescoped one, and whether an
    earlier attempt failed (which makes its row chained)."""
    arrival = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    ready = arrival + draw(_MAYBE)  # parked or retried work is later
    close = ready + draw(_OFFSET)
    start = close + draw(_OFFSET)
    parts = ServiceParts(
        base_s=draw(_WIDTH), pcie_extra_s=draw(_MAYBE),
        slowdown_extra_s=draw(_MAYBE), straggler_extra_s=draw(_MAYBE),
        gather_s=draw(_MAYBE),
        gather_pieces=tuple(draw(st.lists(st.tuples(
            st.sampled_from(("shard0", "shard1", "shard2")),
            st.sampled_from((1e-4, 2e-4)), st.booleans(),
        ), max_size=3))),
    )
    planned = start + (
        parts.base_s + parts.pcie_extra_s + parts.slowdown_extra_s
        + parts.straggler_extra_s + parts.gather_s
    )
    # Early completions make the clamp fire.
    completion = max(arrival, planned + draw(st.one_of(
        st.just(0.0), st.floats(-1e-2, 1e-3)
    )))
    latency = completion - arrival
    for toward in draw(st.lists(st.sampled_from((-math.inf, math.inf)),
                                max_size=3)):
        latency = math.nextafter(latency, toward)
    return dict(
        arrival=arrival, ready=ready, close=close, start=start, parts=parts,
        completion=completion, latency=latency, retried=draw(st.booleans()),
    )


class TestColumnarSettlement:
    """The replay walks single-attempt rows in array steps; every row
    must hold exactly what the scalar :func:`decompose_attempts` gives."""

    @pytest.mark.parametrize("key", sorted(_WALK_RUNS))
    def test_matches_forced_scalar_walk(self, monkeypatch, key):
        run = _WALK_RUNS[key]
        columnar = QueryTraceCapture()
        run(columnar)
        with monkeypatch.context() as patch:
            patch.setattr(
                runlog, "_needs_chain",
                lambda walks, qid, batch: np.ones(len(qid), dtype=bool),
            )
            scalar = QueryTraceCapture()
            run(scalar)
        assert columnar.completed > 0
        assert _columns_state(columnar) == _columns_state(scalar)

    @given(queries=st.lists(_settled_query(), min_size=1, max_size=6))
    @example(queries=[dict(
        # Balancing this row takes the nextafter steps.
        arrival=0.0, ready=0.0, close=0.005042653912063212,
        start=0.005042653912063212,
        parts=ServiceParts(base_s=0.008064461769149236,
                           gather_s=0.0008030645622482694),
        completion=0.013910180243460716, latency=0.013910180243460716,
        retried=False,
    )])
    @settings(max_examples=300, deadline=None)
    def test_rows_match_decompose_attempts(self, queries):
        """Each query settles alone in its batch; a retried one first
        timed out in a batch of its own."""
        log = RunLog(detail=True)
        settled_in = []
        for qid, q in enumerate(queries):
            if q["retried"]:
                failed_at = (q["arrival"] + q["ready"]) / 2
                log.failed.append(
                    len(log.size), qid, 0, q["arrival"], "timeout", failed_at,
                    False,
                )
                log.batch(q["arrival"], failed_at, 1, 0, 0)
                log.close.append(q["arrival"])
                log.parts.append(ServiceParts(base_s=failed_at))
                log.settled(failed_at, [])
                log.requeued.append(qid, 1, q["ready"])
            elif q["ready"] > q["arrival"]:
                log.requeued.append(qid, 0, q["ready"])
            settled_in.append(len(log.size))
            log.batch(q["start"], q["completion"], 1, 0, 0)
            log.close.append(q["close"])
            log.parts.append(q["parts"])
            log.settled(q["completion"], [qid])
        capture = QueryTraceCapture()
        log.replay_capture(
            capture, np.array([q["arrival"] for q in queries]),
            np.array([q["latency"] for q in queries]), ["t4"],
        )
        first_seen = {}
        for qid, (q, b) in enumerate(zip(queries, settled_in)):
            chain = log.chain(b, qid, q["arrival"], ["t4"])
            comps, intervals, shards = decompose_attempts(
                q["arrival"], q["completion"], q["latency"], chain
            )
            record = capture.records[qid]
            assert record.components == comps
            assert record.intervals == intervals
            assert record.shard_seconds == shards
            assert len(record.attempts) == len(chain)
            for by_shard in shards.values():
                for name in by_shard:
                    first_seen.setdefault(name)
        # Shards are coded in order of first appearance.
        assert capture.shard_names == tuple(first_seen)

    @pytest.mark.parametrize("key", ["explain_faults", "requeued-crash"])
    def test_scalar_walk_only_for_chained_queries(self, monkeypatch, key):
        """The scalar walk runs once per settled query with a failed
        attempt or a hedge leg, and never else: on the ``explain_faults``
        run (whose retried queries are all shed, so it never runs), and
        on a run whose retried queries settle."""
        calls = []
        scalar = querytrace.decompose_attempts

        def counted(*args):
            calls.append(1)
            return scalar(*args)

        monkeypatch.setattr(querytrace, "decompose_attempts", counted)
        qt = QueryTraceCapture()
        if key == "explain_faults":
            _monitored(
                "slowdown", capture=qt, queries=10_000,
                scenario_overrides=THROTTLE,
            )
        else:
            _WALK_RUNS[key](qt)
        monkeypatch.undo()
        chained = sum(
            1 for r in qt.records.values()
            if len(r.attempts) > 1 or r.attempts[-1].hedge is not None
        )
        assert len(calls) == chained < qt.completed // 10
        assert chained > 0 or key == "explain_faults"

    @staticmethod
    def _replay_transient(monkeypatch, queries):
        """Bytes the ``explain_faults`` run's capture replay holds at its
        peak above what it leaves behind, and the bytes of the columns
        the capture keeps."""
        transient = []
        replay = RunLog.replay_capture

        def measured(log, *args):
            gc.collect()
            tracemalloc.reset_peak()
            replay(log, *args)
            current, peak = tracemalloc.get_traced_memory()
            transient.append(peak - current)

        monkeypatch.setattr(RunLog, "replay_capture", measured)
        qt = QueryTraceCapture()
        tracemalloc.start()
        try:
            _monitored(
                "slowdown", capture=qt, queries=queries,
                scenario_overrides=THROTTLE,
            )
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
        kept = sum(col.nbytes for col in qt.columns().values())
        return transient[0], kept

    def test_replay_memory_is_chunked(self, monkeypatch):
        """The replay works a bounded chunk of rows at a time, so its
        transient peak does not grow with the run, and at 40k queries it
        is a small part of what the capture keeps."""
        small, _ = self._replay_transient(monkeypatch, 10_000)
        large, kept = self._replay_transient(monkeypatch, 40_000)
        assert abs(large - small) <= 0.1 * small, (small, large)
        assert large <= 0.15 * kept, (large, kept)


class TestExplanationEngine:
    def test_profile_structure(self, throttle):
        exp, _ = throttle
        assert exp.cutoff(50.0) <= exp.cutoff(95.0) <= exp.cutoff(99.0)
        prof = exp.profile(99.0)
        assert prof["queries"] > 0
        shares = [
            prof["components"][k]["share"] for k in COMPONENTS
        ]
        assert sum(shares) == pytest.approx(1.0)
        assert all(s >= 0.0 for s in shares)

    def test_to_dict_twice_gives_equal_unshared_documents(self, throttle):
        """Each view is computed once per argument list, and every
        caller gets its own copy: mutating one document leaves the next
        one as it was."""
        exp, _ = throttle
        first = exp.to_dict()
        second = exp.to_dict()
        pinned = json.dumps(second, sort_keys=True)
        assert json.dumps(first, sort_keys=True) == pinned
        first["profiles"]["p99"]["components"]["service"]["seconds"] = -1.0
        first["what_if"][0]["bound_s"] = -1.0
        first["fault_attribution"]["ok"] = None
        assert json.dumps(second, sort_keys=True) == pinned
        assert json.dumps(exp.to_dict(), sort_keys=True) == pinned
        # 99 and 99.0 are separate keys: each caller gets its own type.
        assert exp.profile(99)["percentile"] == 99
        assert isinstance(exp.profile(99.0)["percentile"], float)
        assert isinstance(exp.profile(99)["percentile"], int)

    def test_mean_profile_is_exact_aggregate(self, throttle):
        exp, _ = throttle
        means = exp.capture.mean_components()
        prof = exp.mean_profile()
        for k in COMPONENTS:
            assert prof["components"][k]["seconds"] == means[k]
        assert prof["queries"] == exp.capture.completed

    def test_throttle_attributes_to_fault_correlated_service(self, throttle):
        """The acceptance criterion: the 5x throttle's p99 is dominated
        by a component whose tail seconds overlap the fault window."""
        exp, _ = throttle
        name, top = exp.top_component(99.0)
        assert name == "service"
        assert top["fault_overlap_share"] >= 0.5
        fa = exp.fault_attribution(99.0)
        assert fa["ok"]
        assert fa["excursion_share"] >= 0.5
        assert fa["top_component"] == "service"

    def test_what_if_bound_matches_fault_disabled_rerun(self, throttle):
        """Zeroing fault-window mass must land near the p99 of an
        actual rerun with the throttle disabled (direct-effect bound:
        queueing relief is not re-simulated, so allow a band)."""
        exp, ms = throttle
        wi = exp.what_if("fault_windows", 99.0)
        assert wi["observed_s"] == pytest.approx(
            float(np.percentile(ms.result.latencies_s, 99.0))
        )
        assert wi["bound_s"] < wi["observed_s"]
        disabled = run_monitored_scenario(
            "rm1", "t4", "slowdown", queries=QUERIES, seed=SEED,
            scenario_overrides={"slowdown_multiplier": 1.0},
        )
        actual = float(np.percentile(disabled.result.latencies_s, 99.0))
        assert 0.7 * actual <= wi["bound_s"] <= 1.1 * actual

    def test_what_if_table_sorted_and_bounded(self, throttle):
        exp, _ = throttle
        rows = exp.what_if_table(99.0)
        assert rows
        knobs = [r["component"] for r in rows]
        assert "fault_windows" in knobs
        wins = [r["improvement_s"] for r in rows]
        assert wins == sorted(wins, reverse=True)
        assert all(w >= 0.0 for w in wins)

    def test_what_if_unknown_component(self, throttle):
        exp, _ = throttle
        with pytest.raises(ValueError, match="unknown component"):
            exp.what_if("network_jitter")

    @pytest.mark.parametrize("call,error,match", [
        (lambda e: e.what_if("service", 150), ValueError, "percentile"),
        (lambda e: e.what_if_table(-0.5), ValueError, "percentile"),
        (lambda e: e.profile(float("nan")), ValueError, "percentile"),
        (lambda e: e.cutoff(float("inf")), ValueError, "percentile"),
        (lambda e: e.tail_records("99"), TypeError, "percentile"),
        (lambda e: e.top_component(True), TypeError, "percentile"),
        (lambda e: e.fault_attribution(None), TypeError, "percentile"),
        (lambda e: e.fault_attribution(99.0, majority=1.5), ValueError,
         "majority"),
        (lambda e: e.fault_attribution(99.0, majority="half"), TypeError,
         "majority"),
        (lambda e: e.top_queries(2.5), TypeError, "n must be an int"),
        (lambda e: e.top_queries(False), TypeError, "n must be an int"),
        (lambda e: e.top_queries(-3), ValueError, "n must be >= 0"),
        (lambda e: Explanation(e.capture, e.result, fault_slack_s=math.nan),
         ValueError, "fault_slack_s"),
        (lambda e: Explanation(e.capture, e.result, fault_slack_s=math.inf),
         ValueError, "fault_slack_s"),
        (lambda e: Explanation(e.capture, e.result, fault_slack_s=-1.0),
         ValueError, "fault_slack_s"),
        (lambda e: Explanation(e.capture, e.result, fault_slack_s="0.1"),
         TypeError, "fault_slack_s"),
        (lambda e: Explanation(
            e.capture, e.result, fault_windows=[(math.nan, 0.1, "x")]),
         ValueError, "fault_windows"),
        (lambda e: Explanation(
            e.capture, e.result, fault_windows=[(0.2, 0.1, "x")]),
         ValueError, "fault_windows"),
        (lambda e: Explanation(e.capture, e.result, fault_windows=[(0.2,)]),
         ValueError, "fault_windows"),
        (lambda e: Explanation(
            e.capture, e.result, fault_windows=[("0.1", 0.2, "x")]),
         TypeError, "fault_windows"),
        (lambda e: Explanation(
            e.capture,
            SimpleNamespace(latencies_s=e.result.latencies_s[:-1]),
        ), ValueError, "capture holds"),
    ])
    def test_bad_arguments_rejected(self, throttle, call, error, match):
        exp, _ = throttle
        with pytest.raises(error, match=match):
            call(exp)

    def test_numpy_scalars_and_bounds_accepted(self, throttle):
        exp, _ = throttle
        assert exp.cutoff(np.float64(100.0)) == exp.cutoff(100)
        assert exp.profile(0)["queries"] == len(exp.records)
        assert len(exp.top_queries(np.int64(3))) == 3
        assert exp.fault_attribution(99.0, majority=1)["majority"] == 1

    def test_top_queries_ranked(self, throttle):
        exp, _ = throttle
        rows = exp.top_queries(5)
        assert len(rows) == 5
        lats = [r["latency_s"] for r in rows]
        assert lats == sorted(lats, reverse=True)
        assert all(r["dominant"] in COMPONENTS for r in rows)

    def test_attribution_section_flat_floats(self, throttle):
        exp, _ = throttle
        section = exp.attribution_section()
        assert len(section) == 2 * len(COMPONENTS) + 1
        assert all(isinstance(v, float) for v in section.values())
        assert section["p99.service_s"] > 0.0
        assert 0.0 <= section["p99.fault_overlap_share"] <= 1.0

    def test_no_fault_windows_gate_fails(self, throttle):
        exp, ms = throttle
        bare = Explanation(exp.capture, ms.result, fault_windows=())
        fa = bare.fault_attribution(99.0)
        assert not fa["ok"]
        assert fa["excursion_share"] == 0.0

    def test_shard_scenario_annotates_gather_shard(self, shard_run):
        exp, _ = shard_run
        prof = exp.profile(99.0)
        gather = prof["components"]["gather_network"]
        assert gather["seconds"] > 0.0
        assert gather["top_shard"] is not None
        assert gather["top_shard"]["shard"].startswith("shard")
        assert 0.0 < gather["top_shard"]["share"] <= 1.0


class _ScalarReference:
    """Per-record scalar implementation of the attribution views: the
    oracle the columnar :class:`Explanation` must reproduce."""

    def __init__(self, capture, result, fault_windows=(), fault_slack_s=0.0):
        self.capture = capture
        self.fault_windows = tuple(fault_windows)
        self.slack = float(fault_slack_s)
        self.records = sorted(capture.records.values(), key=lambda r: r.qid)
        self.sorted_lat = np.sort(np.asarray(result.latencies_s, dtype=float))

    def cutoff(self, percentile):
        if not len(self.sorted_lat):
            return 0.0
        return float(np.percentile(self.sorted_lat, percentile))

    def overlap(self, rec):
        out = {k: 0.0 for k in COMPONENTS}
        for label, lo, hi, _ in rec.intervals if self.fault_windows else ():
            total = 0.0
            for ws, we, _kind in self.fault_windows:
                total += max(
                    0.0, min(hi, we + self.slack) - max(lo, ws - self.slack)
                )
            out[label] += min(total, hi - lo)
        return out

    @staticmethod
    def top_shard(shard_sums, component):
        shards = shard_sums.get(component)
        if not shards:
            return None
        name = max(sorted(shards), key=lambda s: shards[s])
        total = sum(shards[s] for s in sorted(shards))
        return {
            "shard": name,
            "seconds": shards[name],
            "share": shards[name] / total if total > 0.0 else 0.0,
        }

    def profile(self, percentile):
        cut = self.cutoff(percentile)
        tail = [r for r in self.records if r.latency >= cut]
        n = len(tail)
        sums = {k: 0.0 for k in COMPONENTS}
        overlaps = {k: 0.0 for k in COMPONENTS}
        shard_sums = {}
        for rec in tail:
            rec_overlap = self.overlap(rec)
            for k in COMPONENTS:
                sums[k] += rec.components[k]
                overlaps[k] += rec_overlap[k]
            for comp, shards in rec.shard_seconds.items():
                dst = shard_sums.setdefault(comp, {})
                for name, secs in shards.items():
                    dst[name] = dst.get(name, 0.0) + secs
        total = sum(sums[k] for k in COMPONENTS)
        return {
            "percentile": percentile,
            "cutoff_s": cut,
            "queries": n,
            "mean_latency_s": total / n if n else 0.0,
            "components": {
                k: {
                    "seconds": sums[k] / n if n else 0.0,
                    "share": sums[k] / total if total > 0.0 else 0.0,
                    "fault_overlap_share": (
                        overlaps[k] / sums[k] if sums[k] > 0.0 else 0.0
                    ),
                    "top_shard": self.top_shard(shard_sums, k),
                }
                for k in COMPONENTS
            },
        }

    def what_if(self, component, percentile):
        base = self.sorted_lat
        if not len(base):
            return {
                "component": component, "percentile": percentile,
                "observed_s": 0.0, "bound_s": 0.0, "improvement_s": 0.0,
            }
        adjusted = base.copy()
        used = {}
        for rec in self.records:
            if component == "fault_windows":
                value = min(sum(self.overlap(rec).values()), rec.latency)
            else:
                value = rec.components[component]
            if value <= 0.0:
                continue
            idx = int(np.searchsorted(base, rec.latency, side="left"))
            idx += used.get(rec.latency, 0)
            used[rec.latency] = used.get(rec.latency, 0) + 1
            if idx < len(adjusted):
                adjusted[idx] = rec.latency - value
        observed = float(np.percentile(base, percentile))
        bound = float(np.percentile(adjusted, percentile))
        return {
            "component": component, "percentile": percentile,
            "observed_s": observed, "bound_s": bound,
            "improvement_s": observed - bound,
        }

    def top_queries(self, n):
        slowest = sorted(self.records, key=lambda r: -r.latency)[:n]
        return [
            {
                "qid": rec.qid,
                "latency_s": rec.latency,
                "arrival_s": rec.arrival,
                "completion_s": rec.completion,
                "attempts": len(rec.attempts),
                "dominant": max(
                    COMPONENTS, key=lambda k: rec.components[k]
                ),
                "components": rec.components,
            }
            for rec in slowest
        ]

    def fault_attribution(self, percentile, majority=0.5):
        prof = self.profile(percentile)
        comps = prof["components"]
        top_name = max(COMPONENTS, key=lambda k: comps[k]["seconds"])
        top = comps[top_name]
        baseline = self.cutoff(50.0)
        cut = self.cutoff(percentile)
        excursion = overlap_mass = 0.0
        for rec in self.records:
            exc = max(rec.latency - baseline, 0.0)
            if rec.latency < cut or exc <= 0.0:
                continue
            overlap_mass += min(sum(self.overlap(rec).values()), exc)
            excursion += exc
        share = overlap_mass / excursion if excursion > 0.0 else 0.0
        correlated = top["fault_overlap_share"] >= majority
        return {
            "percentile": percentile,
            "majority": majority,
            "baseline_s": baseline,
            "excursion_s": excursion,
            "overlap_s": overlap_mass,
            "excursion_share": share,
            "top_component": top_name,
            "top_component_share": top["share"],
            "top_fault_overlap_share": top["fault_overlap_share"],
            "top_is_fault_correlated": correlated,
            "windows": len(self.fault_windows),
            "ok": bool(
                self.fault_windows and share >= majority and correlated
            ),
        }


def _assert_same(got, want, path="$"):
    """Exact for str/int/bool/None, ``rel_tol=1e-12`` for floats (the
    reference's builtin ``sum`` is compensated on Python >= 3.12)."""
    if isinstance(want, float):
        assert type(got) is float, path
        assert math.isclose(got, want, rel_tol=1e-12), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            _assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


ORACLE_PERCENTILES = (0.0, 37.5, 50.0, 95.0, 99.0, 99.9, 100.0)


def _assert_matches_reference(exp):
    ref = _ScalarReference(
        exp.capture, exp.result, exp.fault_windows, exp.fault_slack_s
    )
    knobs = COMPONENTS + (("fault_windows",) if exp.fault_windows else ())
    for p in ORACLE_PERCENTILES:
        _assert_same(exp.profile(p), ref.profile(p), f"profile({p})")
        for knob in knobs:
            _assert_same(
                exp.what_if(knob, p), ref.what_if(knob, p),
                f"what_if({knob}, {p})",
            )
        _assert_same(
            exp.fault_attribution(p), ref.fault_attribution(p),
            f"fault_attribution({p})",
        )
        assert [r.qid for r in exp.tail_records(p)] == [
            r.qid for r in ref.records if r.latency >= ref.cutoff(p)
        ]
    assert [(r.qid, r.latency) for r in exp.records] == [
        (r.qid, r.latency) for r in ref.records
    ]
    _assert_same(exp.top_queries(50), ref.top_queries(50), "top_queries(50)")


@pytest.fixture(scope="module")
def quiet_run():
    """A fault-free scenario: no fault windows at all."""
    return explain_scenario(
        "rm1", "t4", "stragglers", queries=600, seed=SEED,
    )


@pytest.fixture(scope="module", params=["crash", "mixed"])
def unordered_run(request):
    """Runs whose retried queries settle after later arrivals, so the
    capture's rows are out of qid order."""
    return explain_scenario(
        "rm1", "t4", request.param, queries=4000, seed=SEED,
    )


class TestColumnarOracle:
    """The columnar engine against the per-record scalar reference."""

    def test_throttle(self, throttle):
        _assert_matches_reference(throttle[0])

    def test_shard_scenario(self, shard_run):
        exp = shard_run[0]
        assert exp.profile(99.0)["components"]["gather_network"]["top_shard"]
        _assert_matches_reference(exp)

    def test_settled_out_of_qid_order(self, unordered_run):
        exp = unordered_run[0]
        qid = exp.capture.columns()["qid"]
        assert np.any(np.diff(qid) < 0)
        assert any(r["attempts"] > 1 for r in exp.top_queries(50))
        _assert_matches_reference(exp)

    def test_no_fault_windows(self, quiet_run):
        exp = quiet_run[0]
        assert exp.fault_windows == ()
        _assert_matches_reference(exp)

    @pytest.mark.parametrize("latencies", [[], [0.001, 0.002, 0.004]])
    def test_empty_capture(self, latencies):
        exp = Explanation(
            QueryTraceCapture(), SimpleNamespace(latencies_s=latencies),
            fault_windows=[(0.0, 1.0, "t4.slowdown")],
        )
        assert list(exp.records) == [] and exp.top_queries(5) == []
        _assert_matches_reference(exp)

    def test_tied_latencies_fill_distinct_slots(self):
        """Captured queries sharing one latency each replace their own
        slot of the sorted population, in qid order, and queries with a
        zero knob value take no slot."""
        # qid -> (arrival, queue_wait); every latency is dyadic, so ties
        # are exact.
        lat = 0.125
        specs = [
            (0.0, 0.0625), (0.25, 0.0), (0.5, 0.03125), (0.75, 0.015625),
            (1.0, 0.0625), (1.25, 0.0), (1.5, 0.046875),
        ]
        latencies = [lat, lat, lat, 0.0625, lat, 0.25, lat]
        # One query per batch, closed at its arrival and started after
        # its queue wait, fed through the run-log replay.
        log = RunLog(detail=True)
        for qid, ((arrival, queue), latency) in enumerate(
            zip(specs, latencies)
        ):
            start = arrival + queue
            completion = arrival + latency
            log.batch(start, completion, 1, 0, 0)
            log.close.append(arrival)
            log.parts.append(ServiceParts(base_s=completion - start))
            log.settled(completion, [qid])
        capture = QueryTraceCapture()
        log.replay_capture(
            capture, np.array([a for a, _ in specs]), np.array(latencies),
            ["t4"],
        )
        # Two more queries at the tied latency completed outside the
        # capture, so the population holds more ties than the records.
        population = latencies + [lat, lat]
        exp = Explanation(capture, SimpleNamespace(latencies_s=population))
        n = len(population)
        expected = np.sort(
            [lat - q for (_, q), latency in zip(specs, latencies)
             if latency == lat and q > 0.0]
            + [lat] * (latencies.count(lat) + 2 - 4)
            + [0.0625 - 0.015625, 0.25]
        )
        assert len(expected) == n
        order_stats = [
            exp.what_if("queue_wait", 100.0 * i / (n - 1))["bound_s"]
            for i in range(n)
        ]
        assert order_stats == pytest.approx(expected.tolist(), rel=1e-12)
        _assert_matches_reference(exp)


class TestViews:
    """Record views in qid order, and column sums worked in blocks."""

    def test_records_sequence_in_qid_order(self, unordered_run):
        exp = unordered_run[0]
        records, qids = exp.records, sorted(exp.capture.records)
        assert isinstance(records, Sequence)
        assert len(records) == len(qids) == exp.capture.completed
        assert [r.qid for r in records] == qids
        assert [records[i].qid for i in (0, 7, -1, -len(qids))] == [
            qids[i] for i in (0, 7, -1, -len(qids))
        ]
        for part in (slice(3, 40, 7), slice(-5, None), slice(None, None, -1)):
            assert [r.qid for r in records[part]] == qids[part]
        view = records[-1]
        assert view.latency == exp.capture.records[qids[-1]].latency
        with pytest.raises(IndexError):
            records[len(qids)]
        with pytest.raises(TypeError):
            records[1.0]

    @pytest.mark.parametrize("rows", [
        0, 1, querytrace._BLOCK_ROWS - 1, querytrace._BLOCK_ROWS,
        querytrace._BLOCK_ROWS + 1, 10_000,
    ])
    def test_component_totals_match_one_cumsum(self, rows):
        """Summed in blocks with a carried running row, the totals equal
        one ``cumsum`` over every row, bit for bit."""
        rng = np.random.default_rng(SEED)
        comps = rng.random((rows, len(COMPONENTS))) * 10.0 ** rng.integers(
            -9, 1, (rows, len(COMPONENTS))
        )
        capture = QueryTraceCapture()
        capture._cols["components"].frombytes(comps.tobytes())
        whole = np.cumsum(np.vstack((np.zeros(len(COMPONENTS)), comps)), 0)
        want = dict(zip(COMPONENTS, whole[-1].tolist()))
        assert repr(capture.component_totals) == repr(want)
        if rows == 10_000:
            # The order matters: the exactly rounded sums differ.
            exact = [math.fsum(column) for column in comps.T.tolist()]
            assert exact != whole[-1].tolist()


class TestFlowEvents:
    def test_trace_round_trips_with_flow_events(self, throttle, tmp_path):
        exp, _ = throttle
        path = tmp_path / "explain.trace.json"
        write_chrome_trace(str(path), [], querytrace=exp.capture)
        doc = load_chrome_trace(str(path))
        phases = {}
        for event in doc["traceEvents"]:
            phases.setdefault(event["ph"], []).append(event)
        completed = exp.capture.completed
        assert len(phases["s"]) == completed
        assert len(phases["f"]) == completed
        assert len(phases["t"]) >= completed
        for ph in ("s", "t", "f"):
            assert all("id" in e for e in phases[ph])
        # t/f bind to the *end* of their enclosing slice.
        assert all(e.get("bp") == "e" for e in phases["t"] + phases["f"])

    def test_flow_ids_thread_arrival_to_completion(self, throttle):
        exp, _ = throttle
        events = querytrace_flow_events(exp.capture)
        by_qid = {}
        for event in events:
            if event.get("ph") in ("s", "t", "f"):
                by_qid.setdefault(event["id"], []).append(event)
        rec = exp.records[0]
        chain = sorted(by_qid[rec.qid], key=lambda e: e["ts"])
        assert chain[0]["ph"] == "s"
        assert chain[-1]["ph"] == "f"
        assert chain[0]["ts"] == pytest.approx(rec.arrival * 1e6)
        assert chain[-1]["ts"] == pytest.approx(rec.completion * 1e6)

    def test_validator_rejects_flow_event_without_id(self, tmp_path):
        path = tmp_path / "broken.trace.json"
        path.write_text(json.dumps({
            "traceEvents": [
                {"ph": "s", "ts": 0.0, "pid": 3, "tid": 1, "name": "q"},
            ],
        }))
        with pytest.raises(ValueError, match="missing.*id"):
            load_chrome_trace(str(path))


class TestCli:
    CI_ARGS = [
        "explain", "--model", "rm1", "--platform", "t4",
        "--scenario", "slowdown", "--queries", str(QUERIES),
        "--seed", str(SEED), "--slowdown-multiplier", "5.0",
    ]

    def test_golden_run(self, capsys, tmp_path):
        """The CI smoke invocation: profiles, what-if table, report,
        and the fault-attribution gate in one pass."""
        report = tmp_path / "explain.html"
        code = main(self.CI_ARGS + [
            "--what-if", "all", "--report", str(report),
            "--expect-fault-attribution",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "explain: rm1/t4, scenario 'slowdown'" in out
        assert "p99 tail:" in out and "what-if p99 bounds" in out
        assert "injected fault windows:" in out
        assert "fault attribution gate: PASS" in out
        assert "warning:" not in out
        html = report.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>") and "<svg" in html

    def test_json_document(self, capsys):
        code = main(self.CI_ARGS + [
            "--format", "json", "--expect-fault-attribution",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["gate"]["ok"]
        assert doc["fault_attribution"]["ok"]
        assert set(doc["profiles"]) == {"p50", "p95", "p99"}
        assert set(doc["coverage"]) == {"completed", "shed", "dropped"}
        assert all("coverage" not in row for row in doc["what_if"])
        assert doc["what_if"]

    def test_focused_what_if(self, capsys):
        code = main(self.CI_ARGS + ["--what-if", "service"])
        out = capsys.readouterr().out
        assert code == 0
        assert "what-if zero service:" in out
        assert "queueing relief not re-simulated" in out

    def test_unknown_what_if_knob(self):
        with pytest.raises(SystemExit, match="unknown what-if knob"):
            main(self.CI_ARGS + ["--what-if", "cosmic_rays"])

    def test_gate_fails_without_fault_windows(self, capsys):
        code = main([
            "explain", "--model", "rm1", "--platform", "t4",
            "--scenario", "stragglers", "--queries", "600",
            "--seed", str(SEED), "--expect-fault-attribution",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL: fault attribution gate" in out

    def test_trace_and_record(self, capsys, tmp_path):
        trace = tmp_path / "explain.trace.json"
        ledger = tmp_path / "ledger"
        code = main(self.CI_ARGS + [
            "--trace", str(trace), "--record-dir", str(ledger),
        ])
        assert code == 0
        doc = load_chrome_trace(str(trace))
        assert any(e["ph"] == "s" for e in doc["traceEvents"])
        records = load_records(ledger)
        assert len(records) == 1
        record = records[0]
        assert record.kind == "explain"
        assert record.has_timeseries()
        assert record.attribution is not None
        assert record.attribution["p99.service_s"] > 0.0

    def test_trace_is_deterministic(self, shard_run, tmp_path):
        """Two traced runs at one seed write the same bytes: calibration
        runs before the capture starts, so its wall-clock profile spans
        stay out, and every serving, flow and fault event stays in."""
        args = [
            "explain", "--model", "rm2", "--platform", "broadwell",
            "--scenario", "shard_slowdown", "--queries", "600",
            "--seed", str(SEED), "--what-if", "all",
        ]
        paths = [tmp_path / "a.trace.json", tmp_path / "b.trace.json"]
        for path in paths:
            assert main(args + ["--trace", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

        events = load_chrome_trace(str(paths[0]))["traceEvents"]
        exp, ms = shard_run
        by_cat = {}
        for e in events:
            by_cat.setdefault((e["ph"], e.get("cat")), []).append(e)
        assert ("X", "session") not in by_cat
        assert len(by_cat[("X", "resilience.server")]) == len(
            ms.result.batch_sizes
        )
        assert len(by_cat[("s", "query")]) == ms.result.completed
        assert len(by_cat[("f", "query")]) == ms.result.completed
        assert [e["name"] for e in by_cat[("X", "distserve.fault")]] == [
            f"{name}.{kind}" for name, kind, _, _ in ms.gather.fault_windows()
        ]

    def _record_one(self, tmp_path, name, multiplier):
        ledger = tmp_path / name
        assert main(self.CI_ARGS[:-2] + [
            "--slowdown-multiplier", multiplier,
            "--record-dir", str(ledger),
        ]) == 0
        return load_records(ledger)[0]

    def test_diff_reports_attribution_shift(self, tmp_path):
        """`repro diff` must attribute a throttle change to the
        critical-path component that absorbed it."""
        mild = self._record_one(tmp_path, "mild", "2.0")
        harsh = self._record_one(tmp_path, "harsh", "5.0")
        diff = diff_records(mild, harsh, tolerance=0.05)
        movers = [e for e in diff.entries if e.level == "attribution"]
        assert movers
        assert any(e.significant for e in movers)
        assert any("critical path:" in line for line in diff.attribute())
        # Round-trip: the attribution section survives serialization.
        assert harsh.attribution is not None
        reloaded = type(harsh).from_dict(json.loads(harsh.to_json()))
        assert reloaded.attribution == harsh.attribution

    def test_attribution_level_skipped_with_caveat(self, tmp_path, capsys):
        with_attr = self._record_one(tmp_path, "attr", "5.0")
        bare = with_attr.from_dict(
            {**json.loads(with_attr.to_json()), "attribution": None}
        )
        diff = diff_records(bare, with_attr, tolerance=0.05)
        assert not [e for e in diff.entries if e.level == "attribution"]
        assert any("attribution level skipped" in c for c in diff.caveats)
