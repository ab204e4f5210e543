"""Tests for fault injection and the resilient serving engine.

The two load-bearing guarantees:

* **Golden equivalence** — with no faults and no policies, the
  resilient engine reproduces the plain ``QueryScheduler``
  bit-for-bit.
* **Conservation** — under every policy combination, each issued query
  ends in exactly one of completed / shed / dropped, and completed
  queries contribute exactly one latency sample each.
"""

import dataclasses
import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core import SlaBudget, SpeedupStudy
from repro.models import build_model
from repro.resilience import (
    CircuitBreakerPolicy,
    CrashWindow,
    DegradationPolicy,
    DropSpec,
    FaultInjector,
    FaultPlan,
    HedgePolicy,
    PcieDegradationWindow,
    Replica,
    ResiliencePolicy,
    ResilientScheduler,
    RetryPolicy,
    ServerFaults,
    SheddingPolicy,
    SlowdownWindow,
    StragglerSpec,
    hashed_uniform,
)
from repro.monitor.scenario import SCENARIOS, build_scenario, is_shard_scenario
from repro.resilience import engine
from repro.resilience.engine import WorkQueue
from repro.runtime import (
    BatchFormation,
    BatchingPolicy,
    QueryScheduler,
    ServiceTimeModel,
)
from repro.telemetry import TimeSeries
from repro.telemetry.querytrace import QueryTraceCapture


@pytest.fixture(scope="module")
def sweep():
    models = {n: build_model(n) for n in ("rm1", "rm2")}
    return SpeedupStudy(
        models=models,
        platform_names=["broadwell", "t4"],
        batch_sizes=[1, 16, 64, 256],
    ).run()


@pytest.fixture(scope="module")
def gpu_stm(sweep):
    return ServiceTimeModel(sweep, "rm2", "t4")


@pytest.fixture(scope="module")
def cpu_stm(sweep):
    return ServiceTimeModel(sweep, "rm2", "broadwell")


@pytest.fixture(scope="module")
def lite_stm(sweep):
    return ServiceTimeModel(sweep, "rm1", "t4")


def _fleet(gpu_stm, cpu_stm, lite_stm=None):
    return [
        Replica("t4", gpu_stm, degraded_model=lite_stm),
        Replica("broadwell", cpu_stm),
    ]


class TestFaultSpecs:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            SlowdownWindow(0.2, 0.1)
        with pytest.raises(ValueError):
            SlowdownWindow(-0.1, 0.1)
        with pytest.raises(ValueError):
            SlowdownWindow(0.0, 0.1, multiplier=0.5)
        with pytest.raises(ValueError):
            CrashWindow(1.0, 1.0)
        with pytest.raises(ValueError):
            PcieDegradationWindow(0.0, 1.0, bandwidth_scale=0.0)
        with pytest.raises(ValueError):
            PcieDegradationWindow(0.0, 1.0, bandwidth_scale=1.5)
        with pytest.raises(ValueError):
            StragglerSpec(probability=1.5)
        with pytest.raises(ValueError):
            DropSpec(probability=-0.1)

    def test_plan_lookup_and_emptiness(self):
        plan = FaultPlan(
            seed=1, servers={"t4": ServerFaults(drops=DropSpec(0.1))}
        )
        assert not plan.empty
        assert plan.for_server("t4").drops.probability == 0.1
        assert plan.for_server("unknown").empty
        assert FaultPlan.none().empty

    def test_synthesize_reproducible(self):
        a = FaultPlan.synthesize(5, ["t4", "bdw"], 1.0, crash_windows=1,
                                 drop_probability=0.01)
        b = FaultPlan.synthesize(5, ["t4", "bdw"], 1.0, crash_windows=1,
                                 drop_probability=0.01)
        assert a == b
        assert "t4" in a.servers and "bdw" not in a.servers  # primary-only
        with pytest.raises(ValueError):
            FaultPlan.synthesize(5, ["t4"], 1.0, targets=["nope"])

    def test_hashed_uniform_stable_and_uniform(self):
        assert hashed_uniform(1, 2, 3) == hashed_uniform(1, 2, 3)
        assert hashed_uniform(1, 2, 3) != hashed_uniform(1, 2, 4)
        draws = [hashed_uniform(9, i) for i in range(2000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.4 < float(np.mean(draws)) < 0.6


class TestFaultInjector:
    def test_windows(self):
        faults = ServerFaults(
            slowdowns=(SlowdownWindow(1.0, 2.0, 3.0),
                       SlowdownWindow(1.5, 2.5, 2.0)),
            crashes=(CrashWindow(4.0, 5.0),),
            pcie=(PcieDegradationWindow(0.0, 1.0, 0.5),),
        )
        inj = FaultInjector(faults, seed=0, server_name="t4")
        assert inj.slowdown_multiplier(0.5) == 1.0
        assert inj.slowdown_multiplier(1.2) == 3.0
        assert inj.slowdown_multiplier(1.7) == 6.0  # windows compound
        assert inj.pcie_scale(0.5) == 0.5
        assert inj.pcie_scale(1.5) == 1.0
        assert inj.crashed_at(4.5) is not None
        assert inj.crashed_at(5.0) is None
        assert inj.crash_during(3.0, 4.1) is not None
        assert inj.crash_during(3.0, 4.0) is None  # half-open interval
        assert inj.next_available(4.2) == 5.0
        assert inj.next_available(3.0) == 3.0

    def test_keyed_decisions_pure(self):
        faults = ServerFaults(stragglers=StragglerSpec(probability=0.3),
                              drops=DropSpec(probability=0.3))
        a = FaultInjector(faults, seed=11, server_name="t4")
        b = FaultInjector(faults, seed=11, server_name="t4")
        other = FaultInjector(faults, seed=12, server_name="t4")
        mults = [a.straggler_multiplier(i) for i in range(300)]
        assert mults == [b.straggler_multiplier(i) for i in range(300)]
        assert mults != [other.straggler_multiplier(i) for i in range(300)]
        assert all(m >= 1.0 for m in mults)
        assert any(m > 1.0 for m in mults)
        drops = [a.should_drop(q, 0) for q in range(300)]
        assert drops == [b.should_drop(q, 0) for q in range(300)]
        # retries re-roll: attempt is part of the key
        assert [a.should_drop(q, 1) for q in range(300)] != drops

    def test_straggler_capped(self):
        faults = ServerFaults(
            stragglers=StragglerSpec(probability=1.0, alpha=0.1,
                                     max_multiplier=5.0)
        )
        inj = FaultInjector(faults, seed=0, server_name="x")
        assert all(
            1.0 <= inj.straggler_multiplier(i) <= 5.0 for i in range(200)
        )


class TestPolicyValidation:
    def test_bad_policies_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(deadline_s=0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_s=1, max_retries=-1)
        with pytest.raises(ValueError):
            HedgePolicy(delay_s=-1)
        with pytest.raises(ValueError):
            CircuitBreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreakerPolicy(cooldown_s=0)
        with pytest.raises(ValueError):
            SheddingPolicy(deadline_s=0)
        with pytest.raises(ValueError):
            DegradationPolicy(queue_budget_s=-1)

    def test_backoff_capped_exponential(self):
        r = RetryPolicy(deadline_s=1, backoff_base_s=0.001, backoff_cap_s=0.003)
        assert r.backoff_s(0) == 0.001
        assert r.backoff_s(1) == 0.002
        assert r.backoff_s(5) == 0.003  # capped

    def test_empty_bundle(self):
        assert ResiliencePolicy.none().empty
        assert not ResiliencePolicy(retry=RetryPolicy(deadline_s=1)).empty


class TestGoldenEquivalence:
    """Satellite: faults disabled => identical to the plain scheduler."""

    @pytest.mark.parametrize("qps,n,seed", [(3000, 500, 7), (20000, 800, 3)])
    def test_bit_identical_to_query_scheduler(self, gpu_stm, qps, n, seed):
        policy = BatchingPolicy(max_batch=64, batch_timeout_s=0.002)
        legacy = QueryScheduler(gpu_stm, policy, seed=seed).run(qps, n)
        engine = ResilientScheduler(
            [Replica("t4", gpu_stm)], policy, seed=seed
        ).run(qps, n)
        np.testing.assert_array_equal(legacy.latencies_s, engine.latencies_s)
        assert legacy.batch_sizes == engine.batch_sizes
        assert legacy.duration_s == engine.duration_s
        assert engine.completed == n
        assert engine.shed == engine.dropped == 0

    def test_query_scheduler_plain_path_untouched(self, gpu_stm):
        """No keyword extras => the historical code path, same types."""
        policy = BatchingPolicy()
        result = QueryScheduler(gpu_stm, policy, seed=1).run(2000, 200)
        assert type(result).__name__ == "ScheduleResult"

    def test_same_seed_bit_identical_with_faults(self, gpu_stm, cpu_stm,
                                                 lite_stm):
        """Satellite: same fault seed => bit-identical results."""
        plan = FaultPlan.synthesize(
            4, ["t4", "broadwell"], 0.3, slowdown_windows=1, crash_windows=1,
            drop_probability=0.03, straggler_probability=0.05,
        )
        res = ResiliencePolicy(
            retry=RetryPolicy(deadline_s=0.05),
            hedge=HedgePolicy(delay_s=0.005),
            breaker=CircuitBreakerPolicy(2, 0.02),
            shed=SheddingPolicy(deadline_s=0.3),
            degrade=DegradationPolicy(queue_budget_s=0.01),
        )

        def once():
            return ResilientScheduler(
                _fleet(gpu_stm, cpu_stm, lite_stm),
                BatchingPolicy(max_batch=64),
                resilience=res, fault_plan=plan, seed=13,
            ).run(4000, 600)

        a, b = once(), once()
        np.testing.assert_array_equal(a.latencies_s, b.latencies_s)
        assert a.batch_sizes == b.batch_sizes
        assert a.fault_counts == b.fault_counts
        assert (a.completed, a.shed, a.dropped, a.retries, a.hedges,
                a.failovers) == (b.completed, b.shed, b.dropped, b.retries,
                                 b.hedges, b.failovers)


def _capture_state(capture):
    """A capture's counters, aggregates and records; ``repr`` tells
    every float bit apart."""
    return repr((
        capture.completed, capture.shed_queries, capture.dropped_queries,
        capture.component_totals, capture.shard_totals,
        sorted(capture.records.items()),
    ))


def _both_settlements(monkeypatch, build, qps, n, window_s=0.005):
    """Run ``build(**sinks)`` as is, where fault-free batches settle in
    one array operation, and again with the engine's one-operation
    predicate patched off, so every member settles in turn. Results,
    time series and query-trace captures must agree bit for bit;
    returns the result and the capture."""

    def run():
        ts = TimeSeries(window_s)
        capture = QueryTraceCapture(seed=0, max_queries=n)
        result = build(timeseries=ts, querytrace=capture).run(qps, n)
        return result, ts.to_state(), capture

    fast, fast_ts, fast_capture = run()
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_settles_at_once", lambda *args: False)
        member, member_ts, member_capture = run()
    assert fast.latencies_s.tobytes() == member.latencies_s.tobytes()
    plain = dict(latencies_s=None)
    assert dataclasses.replace(fast, **plain) == dataclasses.replace(
        member, **plain
    )
    assert fast_ts == member_ts
    assert _capture_state(fast_capture) == _capture_state(member_capture)
    return fast, fast_capture


class TestBatchSettlement:
    """Guards on the one-operation settlement of fault-free batches."""

    def test_deadline_tie_does_not_time_out(self, monkeypatch, gpu_stm):
        # One query per batch on an idle server completes at exactly
        # ready + service; a deadline of that service time is a tie.
        service = gpu_stm.seconds(1)

        def build(**sinks):
            return ResilientScheduler(
                [Replica("t4", gpu_stm)],
                BatchingPolicy(max_batch=1, batch_timeout_s=0.0),
                resilience=ResiliencePolicy(
                    retry=RetryPolicy(deadline_s=service, max_retries=1)
                ),
                seed=3, **sinks,
            )

        result, capture = _both_settlements(
            monkeypatch, build, 0.05 / service, 400
        )
        attempts = [a for r in capture.records.values() for a in r.attempts]
        idle = [a for a in attempts if a.start == a.ready]
        assert len(idle) > 300
        for a in idle:
            assert a.end == a.ready + service
            assert a.outcome == "completed"
        # Only queued queries miss the deadline.
        assert result.timeouts == result.retries + result.dropped < 40

    def test_lossy_replica_settles_member_by_member(
        self, monkeypatch, gpu_stm
    ):
        plan = FaultPlan(seed=0, servers={
            "t4": ServerFaults(drops=DropSpec(probability=0.05)),
        })

        def build(**sinks):
            return ResilientScheduler(
                [Replica("t4", gpu_stm)], BatchingPolicy(max_batch=64),
                resilience=ResiliencePolicy(
                    retry=RetryPolicy(deadline_s=0.05, max_retries=2)
                ),
                fault_plan=plan, seed=3, **sinks,
            )

        result, _ = _both_settlements(monkeypatch, build, 4000, 1500)
        assert result.fault_counts["dropped_responses"] > 0
        assert result.retries > 0

    def test_head_past_its_deadline_settles_member_by_member(
        self, monkeypatch, gpu_stm
    ):
        # A batch waits up to 4 ms for members: its head misses a
        # deadline its later members meet.
        service = gpu_stm.seconds(64)

        def build(**sinks):
            return ResilientScheduler(
                [Replica("t4", gpu_stm)],
                BatchingPolicy(max_batch=64, batch_timeout_s=0.004),
                resilience=ResiliencePolicy(
                    retry=RetryPolicy(deadline_s=service + 0.002, max_retries=1)
                ),
                seed=3, **sinks,
            )

        result, _ = _both_settlements(
            monkeypatch, build, 0.2 * 64 / service, 1500
        )
        assert 0 < result.timeouts < result.completed

    def test_hedge_won_batches_settle_at_the_hedge(
        self, monkeypatch, gpu_stm, cpu_stm
    ):
        # The standby loses responses, the primary does not: whether a
        # batch may settle at once depends on the copy that won.
        plan = FaultPlan(seed=0, servers={
            "t4": ServerFaults(slowdowns=(SlowdownWindow(0.03, 0.07, 5.0),)),
            "broadwell": ServerFaults(drops=DropSpec(probability=0.1)),
        })

        def build(**sinks):
            return ResilientScheduler(
                _fleet(gpu_stm, cpu_stm), BatchingPolicy(max_batch=64),
                resilience=ResiliencePolicy(
                    retry=RetryPolicy(deadline_s=0.2, max_retries=2),
                    hedge=HedgePolicy(delay_s=0.008),
                ),
                fault_plan=plan, seed=9, **sinks,
            )

        result, capture = _both_settlements(monkeypatch, build, 10000, 1000)
        assert result.hedge_wins > 0
        assert result.fault_counts["dropped_responses"] > 0
        won = [
            r for r in capture.records.values() if r.attempts[-1].hedge_won
        ]
        assert won
        for record in won:
            leg = record.attempts[-1].hedge
            assert record.completion == record.attempts[-1].end
            assert record.completion > leg.start

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_scenario_settles_alike(self, monkeypatch, scenario):
        if is_shard_scenario(scenario):
            setup = build_scenario("rm2", "broadwell", scenario, queries=1500)
        else:
            setup = build_scenario(
                "rm1", "t4", scenario, queries=1500, fallback="broadwell"
            )
        _both_settlements(
            monkeypatch, lambda **sinks: setup.scheduler(setup.policy, **sinks),
            setup.qps, setup.queries, window_s=setup.window_s,
        )


def _policy_combos():
    retry = RetryPolicy(deadline_s=0.03, max_retries=2)
    hedge = HedgePolicy(delay_s=0.004)
    breaker = CircuitBreakerPolicy(failure_threshold=2, cooldown_s=0.03)
    shed = SheddingPolicy(deadline_s=0.1)
    degrade = DegradationPolicy(queue_budget_s=0.008)
    return [
        ResiliencePolicy.none(),
        ResiliencePolicy(retry=retry),
        ResiliencePolicy(hedge=hedge),
        ResiliencePolicy(shed=shed, degrade=degrade),
        ResiliencePolicy(retry=retry, breaker=breaker),
        ResiliencePolicy(retry=retry, hedge=hedge, breaker=breaker,
                         shed=shed, degrade=degrade),
    ]


class TestConservation:
    """Satellite: no policy combination loses or duplicates queries."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("combo", range(len(_policy_combos())))
    def test_completed_shed_dropped_partition(self, gpu_stm, cpu_stm,
                                              lite_stm, seed, combo):
        res = _policy_combos()[combo]
        plan = FaultPlan.synthesize(
            seed + 100, ["t4", "broadwell"], 0.15,
            slowdown_windows=1, slowdown_multiplier=4.0, crash_windows=1,
            crash_duration_frac=0.1, drop_probability=0.05,
            straggler_probability=0.08, pcie_windows=1, pcie_scale=0.3,
        )
        n = 400
        result = ResilientScheduler(
            _fleet(gpu_stm, cpu_stm, lite_stm),
            BatchingPolicy(max_batch=32, batch_timeout_s=0.001),
            resilience=res, fault_plan=plan, seed=seed,
        ).run(5000, n)
        assert result.queries == n
        # every query ends in exactly one bucket...
        assert result.completed + result.shed + result.dropped == n
        # ...and retried/hedged queries appear exactly once in the
        # latency pool: one sample per completed query.
        assert len(result.latencies_s) == result.completed
        assert np.all(result.latencies_s > 0)
        assert result.accounting_ok()

    def test_sum_of_batches_bounded(self, gpu_stm, cpu_stm):
        """Primary dispatches can exceed n only through retries."""
        plan = FaultPlan(seed=0, servers={
            "t4": ServerFaults(drops=DropSpec(0.2)),
        })
        res = ResiliencePolicy(retry=RetryPolicy(deadline_s=0.05,
                                                 max_retries=3))
        n = 300
        result = ResilientScheduler(
            _fleet(gpu_stm, cpu_stm), BatchingPolicy(max_batch=16),
            resilience=res, fault_plan=plan, seed=2,
        ).run(3000, n)
        served = sum(result.batch_sizes)
        assert served == n + result.retries
        assert result.dropped < n * 0.05  # retries recover most drops


class TestPolicies:
    def test_retries_recover_crash_losses(self, gpu_stm, cpu_stm):
        plan = FaultPlan(seed=0, servers={
            "t4": ServerFaults(crashes=(CrashWindow(0.02, 0.05),)),
        })
        kwargs = dict(fault_plan=plan, seed=5)
        fleet = [Replica("t4", gpu_stm)]  # no standby: crash really hurts
        bare = ResilientScheduler(
            fleet, BatchingPolicy(), **kwargs
        ).run(4000, 400)
        retried = ResilientScheduler(
            fleet, BatchingPolicy(),
            resilience=ResiliencePolicy(
                retry=RetryPolicy(deadline_s=0.2, max_retries=3)
            ),
            **kwargs,
        ).run(4000, 400)
        assert bare.dropped > 0
        assert bare.fault_counts["crashed_batches"] >= 1
        assert retried.dropped < bare.dropped
        assert retried.retries > 0

    def test_hedging_improves_p99_under_slowdown(self, gpu_stm, cpu_stm):
        """The acceptance scenario: GPU throttles, hedging to the CPU
        standby measurably cuts tail latency."""
        horizon = 1000 / 10000
        plan = FaultPlan(seed=0, servers={
            "t4": ServerFaults(slowdowns=(
                SlowdownWindow(0.3 * horizon, 0.7 * horizon, 5.0),
            )),
        })
        fleet = _fleet(gpu_stm, cpu_stm)
        kwargs = dict(fault_plan=plan, seed=9)
        bare = ResilientScheduler(
            fleet, BatchingPolicy(max_batch=64), **kwargs
        ).run(10000, 1000)
        hedged = ResilientScheduler(
            fleet, BatchingPolicy(max_batch=64),
            resilience=ResiliencePolicy(hedge=HedgePolicy(delay_s=0.008)),
            **kwargs,
        ).run(10000, 1000)
        assert hedged.hedges > 0
        assert hedged.hedge_wins > 0
        assert hedged.p99 < 0.8 * bare.p99
        assert bare.fault_counts["slowdown_batches"] > 0

    def test_degradation_serves_cheap_variant_under_pressure(
        self, gpu_stm, cpu_stm, lite_stm
    ):
        horizon = 800 / 12000
        plan = FaultPlan(seed=0, servers={
            "t4": ServerFaults(slowdowns=(
                SlowdownWindow(0.2 * horizon, 0.8 * horizon, 6.0),
            )),
        })
        budget = SlaBudget(deadline_s=0.02, queue_fraction=0.5)
        fleet = [Replica("t4", gpu_stm, degraded_model=lite_stm)]
        kwargs = dict(fault_plan=plan, seed=3)
        bare = ResilientScheduler(
            fleet, BatchingPolicy(max_batch=64), **kwargs
        ).run(12000, 800)
        degraded = ResilientScheduler(
            fleet, BatchingPolicy(max_batch=64),
            resilience=ResiliencePolicy(
                degrade=DegradationPolicy(budget.queue_budget_s)
            ),
            **kwargs,
        ).run(12000, 800)
        assert degraded.degraded_queries > 0
        assert degraded.p99 < bare.p99

    def test_shedding_protects_surviving_queries(self, gpu_stm):
        horizon = 600 / 15000
        plan = FaultPlan(seed=0, servers={
            "t4": ServerFaults(slowdowns=(
                SlowdownWindow(0.0, horizon, 8.0),
            )),
        })
        fleet = [Replica("t4", gpu_stm)]
        kwargs = dict(fault_plan=plan, seed=4)
        bare = ResilientScheduler(
            fleet, BatchingPolicy(max_batch=32), **kwargs
        ).run(15000, 600)
        shedding = ResilientScheduler(
            fleet, BatchingPolicy(max_batch=32),
            resilience=ResiliencePolicy(
                shed=SheddingPolicy(deadline_s=0.02)
            ),
            **kwargs,
        ).run(15000, 600)
        assert shedding.shed > 0
        assert shedding.completed + shedding.shed == 600
        assert shedding.p99 < bare.p99  # survivors meet a tighter tail

    def test_breaker_trips_and_fails_over(self, gpu_stm, cpu_stm):
        plan = FaultPlan(seed=0, servers={
            "t4": ServerFaults(drops=DropSpec(probability=0.9)),
        })
        res = ResiliencePolicy(
            retry=RetryPolicy(deadline_s=0.05, max_retries=3),
            breaker=CircuitBreakerPolicy(failure_threshold=3,
                                         cooldown_s=0.05),
        )
        result = ResilientScheduler(
            _fleet(gpu_stm, cpu_stm), BatchingPolicy(max_batch=16),
            resilience=res, fault_plan=plan, seed=6,
        ).run(3000, 400)
        assert result.breaker_trips > 0
        assert result.failovers > 0
        assert result.completed > 350  # the healthy standby absorbs the load

    def test_pcie_degradation_slows_gpu_batches(self, gpu_stm):
        horizon = 400 / 8000
        plan = FaultPlan(seed=0, servers={
            "t4": ServerFaults(pcie=(
                PcieDegradationWindow(0.0, horizon, bandwidth_scale=0.1),
            )),
        })
        fleet = [Replica("t4", gpu_stm)]
        healthy = ResilientScheduler(
            fleet, BatchingPolicy(max_batch=64), seed=8
        ).run(8000, 400)
        degraded = ResilientScheduler(
            fleet, BatchingPolicy(max_batch=64), fault_plan=plan, seed=8
        ).run(8000, 400)
        assert degraded.fault_counts["pcie_degraded_batches"] > 0
        assert degraded.p50 > healthy.p50

    def test_whole_fleet_down_queries_wait_for_recovery(self, gpu_stm):
        plan = FaultPlan(seed=0, servers={
            "t4": ServerFaults(crashes=(CrashWindow(0.0, 0.05),)),
        })
        result = ResilientScheduler(
            [Replica("t4", gpu_stm)], BatchingPolicy(), fault_plan=plan,
            seed=1,
        ).run(2000, 100)
        assert result.completed == 100
        # The earliest query (arriving ~t=0) waited out the full outage.
        assert result.latencies_s[0] > 0.045


class TestSchedulerIntegration:
    def test_replica_validation(self, gpu_stm):
        with pytest.raises(ValueError, match="at least one replica"):
            ResilientScheduler([], BatchingPolicy())
        with pytest.raises(ValueError, match="unique"):
            ResilientScheduler(
                [Replica("t4", gpu_stm), Replica("t4", gpu_stm)],
                BatchingPolicy(),
            )

    def test_run_validation(self, gpu_stm):
        scheduler = ResilientScheduler([Replica("t4", gpu_stm)],
                                       BatchingPolicy())
        with pytest.raises(ValueError, match="arrival rate"):
            scheduler.run(0)
        with pytest.raises(ValueError, match="arrival rate"):
            scheduler.run(float("nan"))
        with pytest.raises(ValueError, match="at least one query"):
            scheduler.run(100, 0)

    @pytest.mark.parametrize("num_queries", [2.5, True, "10", None])
    def test_run_rejects_non_integer_queries(self, gpu_stm, num_queries):
        scheduler = ResilientScheduler([Replica("t4", gpu_stm)],
                                       BatchingPolicy())
        with pytest.raises(ValueError, match="num_queries"):
            scheduler.run(1000.0, num_queries)

    def test_run_accepts_numpy_integer_queries(self, gpu_stm):
        scheduler = ResilientScheduler([Replica("t4", gpu_stm)],
                                       BatchingPolicy())
        assert scheduler.run(1000.0, np.int64(20)).completed == 20

    def test_run_rejects_non_numeric_rate(self, gpu_stm):
        scheduler = ResilientScheduler([Replica("t4", gpu_stm)],
                                       BatchingPolicy())
        with pytest.raises(TypeError, match="arrival_qps"):
            scheduler.run("1000", 10)

    def test_constructor_rejects_non_policy(self, gpu_stm):
        with pytest.raises(TypeError, match="policy must be a BatchingPolicy"):
            ResilientScheduler([Replica("t4", gpu_stm)], 64)

    def test_constructor_rejects_non_replica(self, gpu_stm):
        with pytest.raises(TypeError, match=r"replicas\[1\] must be a Replica"):
            ResilientScheduler(
                [Replica("t4", gpu_stm), gpu_stm], BatchingPolicy()
            )


class TestTelemetryIntegration:
    def test_counters_and_spans_recorded(self, gpu_stm, cpu_stm, lite_stm):
        horizon = 400 / 6000
        plan = FaultPlan(seed=1, servers={
            "t4": ServerFaults(
                slowdowns=(SlowdownWindow(0.2 * horizon, 0.8 * horizon, 4.0),),
                crashes=(CrashWindow(0.85 * horizon, 0.9 * horizon),),
                drops=DropSpec(0.05),
            ),
        })
        res = ResiliencePolicy(
            retry=RetryPolicy(deadline_s=0.08, max_retries=2),
            hedge=HedgePolicy(delay_s=0.004),
            shed=SheddingPolicy(deadline_s=0.5),
            degrade=DegradationPolicy(queue_budget_s=0.006),
        )
        scheduler = ResilientScheduler(
            _fleet(gpu_stm, cpu_stm, lite_stm),
            BatchingPolicy(max_batch=32),
            resilience=res, fault_plan=plan, seed=21,
        )
        with telemetry.capture() as (tracer, registry):
            result = scheduler.run(6000, 400)

        labels = dict(model="rm2", platform="t4")

        def counter(name):
            metric = registry.find(name, **labels)
            return metric.value if metric is not None else 0.0

        assert counter("resilience.queries") == 400
        assert counter("resilience.completed") == result.completed
        assert counter("resilience.dropped") == result.dropped
        assert counter("resilience.shed") == result.shed
        assert counter("resilience.retries") == result.retries
        assert counter("resilience.hedges") == result.hedges
        assert counter("resilience.faults.slowdown_batches") == \
            result.fault_counts["slowdown_batches"]
        assert counter("resilience.faults.crashed_batches") == \
            result.fault_counts["crashed_batches"]
        assert counter("resilience.faults.dropped_responses") == \
            result.fault_counts["dropped_responses"]

        spans = tracer.sorted_spans()
        categories = {s.category for s in spans}
        assert "resilience.server" in categories
        assert "resilience.fault" in categories
        assert "resilience.hedge" in categories
        # Fault windows are visible as spans on the faulty replica's track.
        fault_spans = [s for s in spans if s.category == "resilience.fault"]
        assert any("slowdown" in s.name for s in fault_spans)
        assert any("crash" in s.name for s in fault_spans)
        # Batch spans carry occupancy for the trace viewer.
        server_spans = [s for s in spans if s.category == "resilience.server"]
        assert all("batch" in s.attrs for s in server_spans)

    def test_telemetry_off_is_silent(self, gpu_stm):
        telemetry.reset()
        result = ResilientScheduler(
            [Replica("t4", gpu_stm)], BatchingPolicy(), seed=1
        ).run(2000, 100)
        assert result.completed == 100
        assert len(telemetry.get_registry()) == 0


class TestFaultPlanValidation:
    """Satellite: malformed plans fail fast, naming the bad window."""

    def test_overlapping_crash_windows_rejected(self):
        with pytest.raises(ValueError, match=(
            r"target 't4': crash window \[0\.4, 0\.8\) overlaps "
            r"\[0\.2, 0\.5\)"
        )):
            FaultPlan(seed=0, servers={
                "t4": ServerFaults(
                    crashes=(CrashWindow(0.2, 0.5), CrashWindow(0.4, 0.8)),
                ),
            })

    def test_crash_overlap_checked_per_target(self):
        # the same windows on different targets are fine
        plan = FaultPlan(seed=0, servers={
            "t4": ServerFaults(crashes=(CrashWindow(0.2, 0.5),)),
            "broadwell": ServerFaults(crashes=(CrashWindow(0.3, 0.6),)),
        })
        assert not plan.empty

    def test_touching_crash_windows_allowed(self):
        plan = FaultPlan(seed=0, servers={
            "t4": ServerFaults(
                crashes=(CrashWindow(0.2, 0.5), CrashWindow(0.5, 0.8)),
            ),
        })
        assert len(plan.servers["t4"].crashes) == 2

    def test_overlapping_slowdown_windows_allowed(self):
        # slowdowns compound multiplicatively by design
        plan = FaultPlan(seed=0, servers={
            "t4": ServerFaults(slowdowns=(
                SlowdownWindow(0.1, 0.6, 2.0), SlowdownWindow(0.3, 0.9, 3.0),
            )),
        })
        assert len(plan.servers["t4"].slowdowns) == 2

    @pytest.mark.parametrize("start,end", [(0.5, 0.5), (0.5, 0.2), (-0.1, 0.4)])
    def test_degenerate_window_rejected_at_construction(self, start, end):
        with pytest.raises(ValueError, match="0 <= start < end"):
            SlowdownWindow(start, end, 2.0)
        with pytest.raises(ValueError, match="0 <= start < end"):
            CrashWindow(start, end)

    def test_plan_recheck_names_target_and_window(self):
        """Plans built from duck-typed windows are re-validated."""
        from types import SimpleNamespace

        bad = SimpleNamespace(start_s=0.5, end_s=0.5)
        with pytest.raises(ValueError, match=(
            r"target 'gpu0': crash window \[0\.5, 0\.5\) is negative or "
            "zero-length"
        )):
            FaultPlan(seed=0, servers={
                "gpu0": ServerFaults(crashes=(bad,)),
            })

    def test_network_degradation_alias(self):
        from repro.resilience import NetworkDegradationWindow

        assert NetworkDegradationWindow is PcieDegradationWindow

    @pytest.mark.parametrize("seed", range(8))
    def test_synthesized_crash_windows_never_overlap(self, seed):
        """Dense draws are serialized instead of tripping validation."""
        plan = FaultPlan.synthesize(
            seed, ["a", "b"], 1.0, slowdown_windows=0, crash_windows=5,
            crash_duration_frac=0.3, targets=["a", "b"],
        )
        for faults in plan.servers.values():
            crashes = sorted(faults.crashes, key=lambda w: w.start_s)
            for prev, cur in zip(crashes, crashes[1:]):
                assert cur.start_s >= prev.end_s

    def test_straggler_redraws_by_attempt(self):
        inj = FaultInjector(
            ServerFaults(stragglers=StragglerSpec(probability=0.5)), 3, "t4"
        )
        base = [inj.straggler_multiplier(i) for i in range(64)]
        legacy = [inj.straggler_multiplier(i, attempt=0) for i in range(64)]
        redrawn = [inj.straggler_multiplier(i, attempt=1) for i in range(64)]
        # attempt 0 reproduces the legacy keying exactly...
        assert base == legacy
        # ...while a hedged reissue gets genuinely fresh luck
        assert base != redrawn


class TestWorkQueue:
    """The cursor + retry-heap merge against the single heap it replaced."""

    @settings(max_examples=300)
    @given(st.data())
    def test_pops_the_single_heap_order(self, data):
        # Quarter-second grid: exact ties between arrivals, and between
        # a retry's ready time and an arrival, are common.
        ticks = st.integers(0, 24)
        arrivals = np.array(
            sorted(data.draw(st.lists(ticks, min_size=1, max_size=30))),
            dtype=float,
        ) / 4
        max_batch = data.draw(st.integers(1, 6))
        form = BatchFormation(
            arrivals, BatchingPolicy(max_batch=max_batch, batch_timeout_s=0.0)
        )
        queue = WorkQueue(form)
        oracle = [(float(a), qid, 0) for qid, a in enumerate(arrivals)]
        heapq.heapify(oracle)
        # Attempts popped and not yet re-queued: the only ones the
        # engine can retry or park.
        out = []
        for _ in range(data.draw(st.integers(1, 60))):
            op = data.draw(st.sampled_from(["pop", "fill", "retry", "park"]))
            if op in ("retry", "park"):
                if not out:
                    continue
                _, qid, attempt = out.pop(data.draw(
                    st.integers(0, len(out) - 1)
                ))
                ready = data.draw(ticks) / 4
                # A retry is the next attempt; a parked query (possibly a
                # first attempt) re-enters unchanged at a later time.
                work = (ready, qid, attempt + 1 if op == "retry" else attempt)
                queue.push(work)
                heapq.heappush(oracle, work)
            elif op == "pop":
                assert bool(queue) == bool(oracle)
                if oracle:
                    work = queue.pop()
                    assert work == heapq.heappop(oracle)
                    out.append(work)
            else:
                # No timeout and an idle server: the window closes at
                # the drawn head-ready time itself.
                dispatch_at, hi = form.window(
                    data.draw(ticks) / 4, 0.0, queue.cursor, max_batch
                )
                members = []
                queue.fill(members, dispatch_at, hi)
                expected = []
                while (
                    oracle
                    and len(expected) < max_batch
                    and oracle[0][0] <= dispatch_at
                ):
                    expected.append(heapq.heappop(oracle))
                assert members == expected
                out.extend(members)
        drained = []
        while queue:
            drained.append(queue.pop())
        assert drained == [heapq.heappop(oracle) for _ in range(len(oracle))]
