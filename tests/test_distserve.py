"""Tests for sharded embedding serving (``repro.distserve``).

The load-bearing guarantees:

* **Golden equivalence** — a single-shard (colocated) layout adds
  *exactly* ``0.0`` gather overhead, so the resilient engine with a
  gather model attached reproduces the gather-free path bit-for-bit.
* **Conservation** — lookups partition exactly across shards, and the
  completed/shed/dropped partition holds under every combination of
  random shard-fault plans and gather policies.
* **The headline** — locality-blind placement under a degraded shard
  blows up the p99; locality-aware placement plus replicated reads,
  hedging, and partial gathers bounds it, at a fixed seed.
"""

import numpy as np
import pytest

from repro.distserve import (
    GatherHedgePolicy,
    GatherPolicy,
    LocalityAwarePlacement,
    NetworkModel,
    PartialGatherPolicy,
    ReplicatedReadPolicy,
    RoundRobinPlacement,
    ShardGatherModel,
    ShardHardware,
    ShardLayout,
    build_layout,
    run_shard_matrix,
)
from repro.distserve.scenario import (
    default_shard_scenarios,
    split_shard_kwargs,
    synthesize_shard_plan,
)
from repro.models import build_model
from repro.resilience import (
    CrashWindow,
    FaultPlan,
    Replica,
    ResilientScheduler,
    ServerFaults,
    SlowdownWindow,
)
from repro.runtime import BatchingPolicy
from repro.workloads import ZipfIndices


@pytest.fixture(scope="module")
def rm2():
    return build_model("rm2")


@pytest.fixture(scope="module")
def rm2_stm(rm2):
    from repro.monitor.scenario import service_model_for

    return service_model_for(rm2, "broadwell", 64)


def _blind(model, n=4, **kw):
    return build_layout(
        model, n, placement=RoundRobinPlacement(),
        distribution=ZipfIndices(alpha=1.1), **kw,
    )


def _aware(model, n=4, **kw):
    return build_layout(
        model, n, placement=LocalityAwarePlacement(hot_k=1024),
        distribution=ZipfIndices(alpha=1.1), **kw,
    )


class TestNetworkModel:
    def test_rpc_seconds_composition(self):
        net = NetworkModel()
        req, resp = 1024.0, 4096.0
        expected = (
            2 * net.hop_latency_s
            + net.request_overhead_s
            + net.serialize_seconds(req + resp)
            + net.transfer_seconds(req + resp)
        )
        assert net.rpc_seconds(req, resp) == pytest.approx(expected)

    def test_bandwidth_scale_slows_transfer_only(self):
        net = NetworkModel()
        base = net.rpc_seconds(0.0, 1e6)
        degraded = net.rpc_seconds(0.0, 1e6, bandwidth_scale=0.1)
        assert degraded > base
        extra = degraded - base
        assert extra == pytest.approx(9.0 * net.transfer_seconds(1e6))

    def test_local_is_exactly_zero(self):
        net = NetworkModel.local()
        assert net.is_local
        assert net.rpc_seconds(1e9, 1e9) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(hop_latency_s=-1e-6)
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_gb_s=0.0)

    def test_shard_hardware(self):
        hw = ShardHardware(seconds_per_lookup=1e-8, base_s=4e-6)
        assert hw.lookup_seconds(0) == 0.0
        assert hw.lookup_seconds(100) == pytest.approx(4e-6 + 1e-6)
        assert ShardHardware.local().lookup_seconds(1e9) == 0.0

    def test_from_platform_positive(self):
        from repro.hw.platform import BROADWELL

        hw = ShardHardware.from_platform(BROADWELL, row_bytes=128.0)
        assert hw.seconds_per_lookup > 0.0
        with pytest.raises(ValueError):
            ShardHardware.from_platform(BROADWELL, 128.0, gather_efficiency=0)


class TestPlacement:
    def test_blind_row_is_balanced(self, rm2):
        layout = _blind(rm2)
        masses = [s.lookup_mass for s in layout.shards]
        assert sum(masses) == pytest.approx(1.0)
        assert max(masses) == pytest.approx(min(masses))
        assert layout.memory_imbalance() == pytest.approx(1.0)
        assert all(s.replicated_mass == 0.0 for s in layout.shards)

    def test_aware_row_balanced_with_replicated_hot_set(self, rm2):
        layout = _aware(rm2)
        masses = [s.lookup_mass for s in layout.shards]
        assert sum(masses) == pytest.approx(1.0)
        # partition-cold/replicate-hot keeps expected load balanced...
        assert layout.load_imbalance() == pytest.approx(1.0, abs=1e-9)
        for s in layout.shards:
            # ...while every shard holds a share of the hot set with
            # full redundancy and a cache-resident cost scale.
            assert s.replicated_mass > 0.5
            assert set(s.replica_names) == set(layout.names) - {s.name}
            assert s.hot_work_scale < 1.0

    def test_aware_memory_overhead_is_small(self, rm2):
        blind = _blind(rm2)
        aware = _aware(rm2)
        blind_total = sum(s.memory_bytes for s in blind.shards)
        aware_total = sum(s.memory_bytes for s in aware.shards)
        # The replicated hot set is tiny next to the cold tail.
        assert aware_total < 1.05 * blind_total

    @pytest.mark.parametrize("sharding", ["table", "column"])
    @pytest.mark.parametrize("factory", [_blind, _aware])
    def test_other_axes_mass_accounting(self, rm2, sharding, factory):
        layout = factory(rm2, sharding=sharding)
        masses = [s.lookup_mass for s in layout.shards]
        if sharding == "column":
            # every lookup hits every shard, at 1/N of the work
            assert all(m == pytest.approx(1.0) for m in masses)
            assert all(
                s.work_scale == pytest.approx(0.25) for s in layout.shards
            )
        else:
            assert sum(masses) == pytest.approx(1.0)

    @pytest.mark.parametrize("batch", [1, 7, 64, 256])
    @pytest.mark.parametrize("sharding", ["row", "table", "column"])
    def test_partition_conserves_lookups(self, rm2, batch, sharding):
        layout = _aware(rm2, sharding=sharding)
        parts = layout.partition(batch)
        total = batch * layout.lookups_per_query
        if sharding == "column":
            assert all(p.lookups == total for p in parts)
        else:
            assert sum(p.lookups for p in parts) == total

    def test_single_shard_is_local(self, rm2):
        layout = build_layout(rm2, 1)
        assert layout.shards[0].local
        assert layout.hardware.is_local

    def test_validation(self, rm2):
        with pytest.raises(ValueError):
            build_layout(rm2, 0)
        with pytest.raises(ValueError):
            build_layout(rm2, 4, sharding="diagonal")

    @pytest.mark.parametrize(
        "num_shards,error",
        [(True, TypeError), ("4", TypeError), (2.0, TypeError),
         (0, ValueError), (-1, ValueError)],
        ids=repr,
    )
    def test_bad_shard_count_named(self, rm2, num_shards, error):
        with pytest.raises(error, match="num_shards"):
            build_layout(rm2, num_shards)

    def test_model_name_instead_of_model_named(self):
        with pytest.raises(TypeError, match="model"):
            build_layout("rm2", 4)
        with pytest.raises(ValueError):
            LocalityAwarePlacement(hot_k=0)
        with pytest.raises(ValueError):
            LocalityAwarePlacement(cache_speedup=0.0)

    def test_layout_rejects_unknown_replicas(self, rm2):
        layout = _aware(rm2)
        from dataclasses import replace

        bad = tuple(
            replace(s, replica_names=("shard9",)) for s in layout.shards
        )
        with pytest.raises(ValueError, match="unknown replicas"):
            ShardLayout(
                shards=bad,
                lookups_per_query=layout.lookups_per_query,
                response_bytes_per_lookup=layout.response_bytes_per_lookup,
                hardware=layout.hardware,
            )


def _slowdown_plan(target, mult=8.0, seed=2020):
    return FaultPlan(seed=seed, servers={
        target: ServerFaults(slowdowns=(SlowdownWindow(0.0, 10.0, mult),)),
    })


def _crash_plan(target, seed=2020):
    return FaultPlan(seed=seed, servers={
        target: ServerFaults(crashes=(CrashWindow(0.0, 10.0),)),
    })


class TestGatherModel:
    def test_single_shard_gather_is_exactly_zero(self, rm2):
        gather = ShardGatherModel(build_layout(rm2, 1))
        out = gather.start_run().gather(64, 0.0)
        assert out.seconds == 0.0
        assert out.fanout == 0

    def test_deterministic_across_runs(self, rm2):
        layout = _blind(rm2)
        plan = synthesize_shard_plan(
            7, layout.names, 1.0, slowdown_windows=1,
            slowdown_multiplier=6.0, straggler_probability=0.1,
        )
        gather = ShardGatherModel(layout, fault_plan=plan, seed=7)
        seq_a = [gather.start_run().gather(64, 0.01 * i).seconds
                 for i in range(20)]
        run = gather.start_run()
        # fresh model, same construction -> identical sequence
        gather2 = ShardGatherModel(layout, fault_plan=plan, seed=7)
        run2 = gather2.start_run()
        seq_b = [run2.gather(64, 0.01 * i).seconds for i in range(20)]
        seq_c = [run.gather(64, 0.01 * i).seconds for i in range(20)]
        assert seq_b == seq_c
        # single-gather runs restart the gather-index stream
        assert seq_a[0] == seq_b[0]

    def test_healthy_aware_not_slower_than_blind(self, rm2):
        blind = ShardGatherModel(_blind(rm2)).start_run().gather(64, 0.0)
        aware = ShardGatherModel(_aware(rm2)).start_run().gather(64, 0.0)
        assert aware.seconds <= blind.seconds

    def test_slowdown_inflates_blind_gather(self, rm2):
        layout = _blind(rm2)
        healthy = ShardGatherModel(layout).start_run().gather(64, 0.0)
        slowed = ShardGatherModel(
            layout, fault_plan=_slowdown_plan(layout.hottest().name)
        ).start_run().gather(64, 0.0)
        assert slowed.seconds > 1.5 * healthy.seconds

    def test_replicated_read_masks_slowdown(self, rm2):
        layout = _aware(rm2)
        target = layout.hottest().name
        policy = GatherPolicy(replicate=ReplicatedReadPolicy(replicas=2))
        bare = ShardGatherModel(
            layout, fault_plan=_slowdown_plan(target)
        ).start_run().gather(64, 0.0)
        shielded = ShardGatherModel(
            layout, policy=policy, fault_plan=_slowdown_plan(target)
        ).start_run().gather(64, 0.0)
        assert shielded.seconds < bare.seconds

    def test_crash_without_partial_policy_blocks(self, rm2):
        layout = _blind(rm2)
        target = layout.hottest().name
        run = ShardGatherModel(
            layout, fault_plan=_crash_plan(target)
        ).start_run()
        out = run.gather(64, 1.0)
        assert out.blocked and out.partial
        assert run.counts["blocked_gathers"] == 1
        assert run.counts["blocked_wait_s"] > 0.0

    def test_crash_with_partial_policy_bounds_wait(self, rm2):
        layout = _blind(rm2)
        target = layout.hottest().name
        budget = 3e-3
        policy = GatherPolicy(
            partial=PartialGatherPolicy(wait_budget_s=budget)
        )
        run = ShardGatherModel(
            layout, policy=policy, fault_plan=_crash_plan(target)
        ).start_run()
        out = run.gather(64, 1.0)
        assert out.partial and not out.blocked
        assert out.imputed > 0
        # bounded: the lost piece costs the wait budget, not the
        # crash duration
        healthy = ShardGatherModel(layout).start_run().gather(64, 0.0)
        assert out.seconds <= healthy.seconds + budget

    def test_cached_mode_serves_hot_rows_from_cache(self, rm2):
        layout = _aware(rm2)
        target = layout.hottest().name
        policy = GatherPolicy(
            replicate=ReplicatedReadPolicy(replicas=1),
            partial=PartialGatherPolicy(mode="cached"),
        )
        run = ShardGatherModel(
            layout, policy=policy, fault_plan=_crash_plan(target)
        ).start_run()
        out = run.gather(64, 1.0)
        assert out.cached > 0

    def test_fault_windows_exported(self, rm2):
        layout = _blind(rm2)
        gather = ShardGatherModel(
            layout, fault_plan=_slowdown_plan(layout.hottest().name)
        )
        windows = gather.fault_windows()
        assert windows == [(layout.hottest().name, "slowdown", 0.0, 10.0)]
        from repro.telemetry import TimeSeries

        ts = TimeSeries(window_s=1.0)
        gather.emit_fault_windows(ts)
        names = ts.track_names()
        assert "faults.window_active_s" in names
        assert f"shard.{layout.hottest().name}" in names

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ReplicatedReadPolicy(replicas=0)
        with pytest.raises(ValueError):
            ReplicatedReadPolicy(replicas=2, quorum=3)
        with pytest.raises(ValueError):
            GatherHedgePolicy(delay_s=-1.0)
        with pytest.raises(ValueError):
            PartialGatherPolicy(mode="drop")
        with pytest.raises(ValueError):
            PartialGatherPolicy(wait_budget_s=0.0)
        assert GatherPolicy.none().empty
        assert not GatherPolicy.full().empty


class TestGoldenSingleShard:
    """The bit-identical contract: one shard == no gather model."""

    @pytest.mark.parametrize("seed", [0, 2020])
    def test_scheduler_bit_identical_with_one_shard(self, rm2, rm2_stm,
                                                    seed):
        def run(gather):
            return ResilientScheduler(
                [Replica("broadwell", rm2_stm)],
                BatchingPolicy(max_batch=64),
                seed=seed,
                gather=gather,
            ).run(3000.0, num_queries=400)

        gather = ShardGatherModel(
            build_layout(rm2, 1), policy=GatherPolicy.full(),
            fault_plan=FaultPlan.none(), seed=seed,
        )
        base, sharded = run(None), run(gather)
        assert np.array_equal(base.latencies_s, sharded.latencies_s)
        assert base.batch_sizes == sharded.batch_sizes
        assert sharded.gather_counts == {}

    def test_multi_shard_run_is_reproducible(self, rm2, rm2_stm):
        def run():
            layout = _aware(rm2)
            plan = synthesize_shard_plan(
                2020, layout.names, 0.2, target=layout.hottest().name,
                slowdown_windows=1, slowdown_multiplier=8.0,
                straggler_probability=0.05,
            )
            gather = ShardGatherModel(
                layout, policy=GatherPolicy.full(), fault_plan=plan,
                seed=2020,
            )
            return ResilientScheduler(
                [Replica("broadwell", rm2_stm)],
                BatchingPolicy(max_batch=64),
                seed=2020,
                gather=gather,
            ).run(3000.0, num_queries=400)

        a, b = run(), run()
        assert np.array_equal(a.latencies_s, b.latencies_s)
        assert a.gather_counts == b.gather_counts


class TestConservationUnderShardFaults:
    """Satellite: the completed+shed+dropped partition survives every
    gather policy under random shard-fault plans."""

    _POLICIES = [
        GatherPolicy.none(),
        GatherPolicy(hedge=GatherHedgePolicy(delay_s=1e-3)),
        GatherPolicy(replicate=ReplicatedReadPolicy(replicas=2)),
        GatherPolicy(partial=PartialGatherPolicy(mode="cached")),
        GatherPolicy.full(),
    ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("combo", range(len(_POLICIES)))
    def test_partition_holds(self, rm2, rm2_stm, seed, combo):
        layout = _aware(rm2)
        plan = synthesize_shard_plan(
            seed + 50, layout.names, 0.15,
            target=layout.names[seed % len(layout.names)],
            slowdown_windows=1, slowdown_multiplier=6.0, crash_windows=1,
            crash_duration_frac=0.1, straggler_probability=0.08,
            drop_probability=0.05, pcie_windows=1, pcie_scale=0.3,
        )
        gather = ShardGatherModel(
            layout, policy=self._POLICIES[combo], fault_plan=plan,
            seed=seed,
        )
        n = 400
        result = ResilientScheduler(
            [Replica("broadwell", rm2_stm)],
            BatchingPolicy(max_batch=32, batch_timeout_s=0.001),
            seed=seed,
            gather=gather,
        ).run(5000.0, n)
        assert result.queries == n
        assert result.completed + result.shed + result.dropped == n
        assert len(result.latencies_s) == result.completed
        assert result.accounting_ok()
        assert result.gather_counts["gathers"] > 0


class TestShardScenario:
    def test_scenarios_registered_in_shared_table(self):
        from repro.monitor.scenario import (
            SCENARIOS,
            is_shard_scenario,
            replica_scenario_names,
            shard_scenario_names,
        )

        for name in default_shard_scenarios():
            assert name in SCENARIOS
            assert is_shard_scenario(name)
            assert name in shard_scenario_names()
            assert name not in replica_scenario_names()
        assert not is_shard_scenario("slowdown")

    def test_split_shard_kwargs(self):
        is_shard, setup, synth = split_shard_kwargs(
            dict(shard_faults=True, shards=8, alpha=1.2,
                 slowdown_windows=1)
        )
        assert is_shard
        assert setup == {"shards": 8, "alpha": 1.2}
        assert synth == {"slowdown_windows": 1}
        is_shard, setup, synth = split_shard_kwargs(dict(crash_windows=1))
        assert not is_shard and setup == {}

    def test_synthesize_targets_one_shard_rates_everywhere(self):
        names = ["shard0", "shard1", "shard2"]
        plan = synthesize_shard_plan(
            7, names, 1.0, target="shard1", slowdown_windows=1,
            slowdown_multiplier=8.0, straggler_probability=0.05,
        )
        assert plan.servers["shard1"].slowdowns
        assert not plan.servers["shard0"].slowdowns
        for name in names:
            assert plan.servers[name].stragglers.probability == 0.05

    def test_headline_matrix(self, rm2):
        matrix = run_shard_matrix(
            "rm2", "broadwell", "shard_slowdown", queries=1500, seed=2020,
        )
        assert matrix.locality_win()
        single = matrix.row("single-node").p99_ms
        blind = matrix.row("blind").p99_ms
        aware_full = matrix.row("locality+policies").p99_ms
        # fan-out under a degraded shard blows up the tail...
        assert blind > 1.5 * single
        # ...and the full locality stack claws most of it back.
        assert aware_full < 0.75 * blind
        for row in matrix.rows:
            assert row.result.accounting_ok()
        # replicated reads actually fired in the full-policy row
        assert matrix.row("locality+policies").gather_count(
            "replicated_reads"
        ) > 0

    def test_matrix_records_tagged_per_row(self, rm2):
        from repro.distserve import matrix_records

        matrix = run_shard_matrix(
            "rm2", "broadwell", "shard_slowdown", queries=200, seed=2020,
        )
        records = matrix_records(matrix)
        keys = {r.fingerprint.key for r in records}
        assert len(keys) == len(matrix.rows)
        assert any("shard-blind4" in k for k in keys)
        assert any("shard-single1" in k for k in keys)
        for record in records:
            assert record.kind == "shard"
            assert "distserve.mean_fanout" in record.scalars or \
                "layout.shards" in record.scalars

    def test_rejects_replica_scenario(self):
        with pytest.raises(ValueError, match="not a shard scenario"):
            run_shard_matrix("rm2", "broadwell", "slowdown", queries=50)

    def test_monitored_shard_scenario(self):
        from repro.monitor.scenario import run_monitored_scenario

        ms = run_monitored_scenario(
            "rm2", "broadwell", "shard_slowdown", queries=300, seed=2020,
        )
        assert ms.result.accounting_ok()
        assert ms.result.gather_counts["gathers"] > 0
        # shard windows surface through the same fault tracks the
        # replica level uses, so alerting needs no changes
        names = ms.timeseries.track_names()
        assert "faults.window_active_s" in names
        assert any(n.startswith("shard.") for n in names)
        assert ms.fault_windows()
