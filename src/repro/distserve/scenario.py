"""The ``repro shard`` scenario: placement × gather-policy matrix.

Reproduces the sharded-serving headline (Lui et al., arXiv 2011.02084)
on the discrete-event serving stack: with locality-blind placement the
Zipf hot set is striped across every shard, so each gather's critical
path includes each shard and a single degraded shard drags the fleet
p99 — while locality-aware placement plus hot replication, hedged
RPCs, and a partial-gather policy bounds the tail under the *same*
injected shard faults.

Shard fault scenarios share the monitor ``SCENARIOS`` table: entries
whose kwargs carry ``shard_faults=True`` (plus optional layout keys)
are consumed here by :func:`split_shard_kwargs`, and windows are aimed
at the layout's *hottest* shard — deterministic and fair to every
placement (blind layouts tie, so the first shard is "hottest").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.distserve.gather import (
    GatherHedgePolicy,
    GatherPolicy,
    PartialGatherPolicy,
    ReplicatedReadPolicy,
    ShardGatherModel,
)
from repro.distserve.placement import (
    LocalityAwarePlacement,
    RoundRobinPlacement,
    ShardLayout,
    build_layout,
)
from repro.distserve.topology import NetworkModel
from repro.resilience.faults import (
    DropSpec,
    FaultPlan,
    ServerFaults,
    StragglerSpec,
)
from repro.workloads.distributions import ZipfIndices

__all__ = [
    "SHARD_FAULTS_KEY",
    "SHARD_SETUP_KEYS",
    "split_shard_kwargs",
    "synthesize_shard_plan",
    "shard_layout",
    "hottest_shard_plan",
    "ShardCaseResult",
    "ShardMatrix",
    "run_shard_matrix",
    "default_shard_scenarios",
]

#: Marker key in a SCENARIOS entry: faults target shard servers, not
#: replicas. Consumers must pop it (and the setup keys) before handing
#: the rest to FaultPlan.synthesize.
SHARD_FAULTS_KEY = "shard_faults"

#: Layout keys a shard scenario entry (or CLI override) may carry.
SHARD_SETUP_KEYS = ("shards", "sharding", "alpha", "hot_k", "replicas")


def default_shard_scenarios() -> Dict[str, Dict[str, Any]]:
    """Shard entries for the shared monitor ``SCENARIOS`` table."""
    return {
        # The headline: one shard throttled hard mid-run + background
        # straggler jitter on every shard.
        "shard_slowdown": dict(
            shard_faults=True,
            slowdown_windows=1, slowdown_multiplier=8.0,
            straggler_probability=0.05,
        ),
        # A shard dies and recovers; without a partial policy gathers
        # block on it.
        "shard_crash": dict(
            shard_faults=True,
            slowdown_windows=0, crash_windows=1, crash_duration_frac=0.12,
            straggler_probability=0.02,
        ),
        # NIC/link degradation: the RPC bandwidth term collapses.
        "shard_network": dict(
            shard_faults=True,
            slowdown_windows=0, pcie_windows=1, pcie_scale=0.1,
            straggler_probability=0.05,
        ),
    }


def split_shard_kwargs(
    kwargs: Dict[str, Any]
) -> Tuple[bool, Dict[str, Any], Dict[str, Any]]:
    """(is_shard_scenario, layout setup kwargs, synthesize kwargs)."""
    rest = dict(kwargs)
    is_shard = bool(rest.pop(SHARD_FAULTS_KEY, False))
    setup = {k: rest.pop(k) for k in SHARD_SETUP_KEYS if k in rest}
    return is_shard, setup, rest


def synthesize_shard_plan(
    seed: int,
    shard_names: Sequence[str],
    horizon_s: float,
    *,
    target: Optional[str] = None,
    straggler_probability: float = 0.0,
    drop_probability: float = 0.0,
    **window_kwargs: Any,
) -> FaultPlan:
    """Seeded shard fault plan: windows on ``target``, rates everywhere.

    Unlike :meth:`FaultPlan.synthesize` (windows *and* rates on the
    targeted servers), shard scenarios aim the deterministic windows at
    one shard — the hottest, normally — while straggler/drop rates
    model fabric-wide background noise on every shard.
    """
    target = target if target is not None else shard_names[0]
    plan = FaultPlan.synthesize(
        seed, list(shard_names), horizon_s, targets=[target], **window_kwargs
    )
    if straggler_probability <= 0.0 and drop_probability <= 0.0:
        return plan
    servers: Dict[str, ServerFaults] = dict(plan.servers)
    for name in shard_names:
        existing = servers.get(name, ServerFaults())
        servers[name] = replace(
            existing,
            stragglers=StragglerSpec(probability=straggler_probability),
            drops=DropSpec(probability=drop_probability),
        )
    return FaultPlan(seed=seed, servers=servers)


def shard_layout(
    model, setup: Dict[str, Any], placement, num_shards: Optional[int] = None
) -> ShardLayout:
    """Place ``model`` per a shard scenario's layout ``setup`` keys.

    With :func:`hottest_shard_plan`, the one place a shard scenario
    becomes layouts and fault plans — :func:`run_shard_matrix` and the
    monitored shard scenario (:func:`repro.monitor.build_scenario`)
    both build through them. Defaults: 4 row-sharded shards, Zipf 1.1.
    """
    return build_layout(
        model,
        int(setup.get("shards", 4)) if num_shards is None else num_shards,
        sharding=str(setup.get("sharding", "row")),
        placement=placement,
        distribution=ZipfIndices(alpha=float(setup.get("alpha", 1.1))),
    )


def hottest_shard_plan(
    layout: ShardLayout, seed: int, horizon_s: float, fault_kwargs
) -> FaultPlan:
    """The seeded shard plan, windows aimed at ``layout``'s hottest shard."""
    return synthesize_shard_plan(
        seed, layout.names, horizon_s,
        target=layout.hottest().name, **fault_kwargs,
    )


@dataclass
class ShardCaseResult:
    """One matrix row: a placement/policy combination's run."""

    label: str
    layout: ShardLayout
    result: Any  # ResilientScheduleResult

    @property
    def p99_ms(self) -> float:
        return 1e3 * self.result.p99

    @property
    def p50_ms(self) -> float:
        return 1e3 * self.result.p50

    def gather_count(self, key: str) -> float:
        return float(self.result.gather_counts.get(key, 0))


@dataclass
class ShardMatrix:
    """The full ``repro shard`` run bundle."""

    model: str
    platform: str
    scenario: str
    seed: int
    queries: int
    qps: float
    batch_size: int
    shards: int
    sharding: str
    rows: List[ShardCaseResult]

    def row(self, label: str) -> ShardCaseResult:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(
            f"no matrix row {label!r} (have: {[r.label for r in self.rows]})"
        )

    def locality_win(self) -> bool:
        """The CI gate: full locality stack beats blind placement on p99."""
        return self.row("locality+policies").p99_ms < self.row("blind").p99_ms


#: Row labels, fixed order (CLI table + ledger tags rely on these).
_CASE_SINGLE = "single-node"
_CASE_BLIND = "blind"
_CASE_BLIND_HEDGE = "blind+hedge"
_CASE_AWARE = "locality"
_CASE_AWARE_FULL = "locality+policies"

#: Ledger fingerprint tag per row (kept short for slugs/keys).
CASE_TAGS = {
    _CASE_SINGLE: "shard-single",
    _CASE_BLIND: "shard-blind",
    _CASE_BLIND_HEDGE: "shard-blindh",
    _CASE_AWARE: "shard-loc",
    _CASE_AWARE_FULL: "shard-locp",
}


def run_shard_matrix(
    model_name: str,
    platform: str,
    scenario: str = "shard_slowdown",
    *,
    shards: int = 4,
    sharding: str = "row",
    batch_size: int = 64,
    queries: int = 1500,
    qps: Optional[float] = None,
    seed: int = 2020,
    alpha: float = 1.1,
    hot_k: int = 1024,
    replicas: int = 2,
) -> ShardMatrix:
    """Run the placement × gather-policy matrix under one shard scenario.

    Every row sees the same arrivals, the same single serving replica
    (no replica-level faults or policies — the matrix isolates the
    *distribution* layer), and the same seeded shard fault plan aimed
    at each layout's hottest shard.
    """
    from repro.models import build_model
    from repro.monitor.scenario import (
        check_scenario_inputs,
        scenario_kwargs,
        service_model_for,
    )
    from repro.resilience import Replica, ResilientScheduler
    from repro.runtime import BatchingPolicy

    check_scenario_inputs(batch_size=batch_size, queries=queries, qps=qps)
    is_shard, entry, fault_kwargs = split_shard_kwargs(
        scenario_kwargs(scenario)
    )
    if not is_shard:
        raise ValueError(
            f"scenario {scenario!r} is not a shard scenario "
            f"(no {SHARD_FAULTS_KEY!r} marker)"
        )
    # Scenario entry keys override the arguments.
    setup = {
        **dict(shards=shards, sharding=sharding, alpha=alpha, hot_k=hot_k,
               replicas=replicas),
        **entry,
    }
    model = build_model(model_name)
    service_model = service_model_for(model, platform, batch_size)
    # Explicit even for the single-node row, which would otherwise get
    # the colocated ``NetworkModel.local()`` default.
    network = NetworkModel()

    single = shard_layout(model, setup, RoundRobinPlacement(), 1)
    blind = shard_layout(model, setup, RoundRobinPlacement())
    # The hot set is replicated on every shard (it is tiny); ``replicas``
    # only sets the replicated-*read* fan-out, so the aware layout stays
    # load-balanced regardless of how many holders a read races.
    aware = shard_layout(
        model, setup, LocalityAwarePlacement(hot_k=int(setup["hot_k"]))
    )

    # Policy time constants derive from the healthy gather cost of the
    # blind layout, so they are deterministic and scale with the model.
    probe = ShardGatherModel(blind, network=network).start_run().gather(
        batch_size, 0.0
    )
    healthy_gather_s = max(probe.seconds, 1e-5)
    hedge = GatherHedgePolicy(delay_s=2.0 * healthy_gather_s)
    partial = PartialGatherPolicy(wait_budget_s=4.0 * healthy_gather_s)

    # Offered load is calibrated against the *sharded* service time
    # (model compute + healthy blind gather), so every row runs at the
    # same moderate utilization and p99 reflects fault handling, not
    # queueing collapse. The batching timeout is set to the batch fill
    # time so batches run near-full — gather fan-out cost scales with
    # batch size, and half-empty batches would hide it.
    peak = batch_size / (service_model.seconds(batch_size) + healthy_gather_s)
    qps = qps if qps is not None else 0.8 * peak
    horizon = queries / qps
    batch_timeout_s = batch_size / qps

    def plan_for(layout: ShardLayout) -> FaultPlan:
        # A colocated single node has no shard servers to fault.
        if layout.num_shards == 1:
            return FaultPlan.none()
        return hottest_shard_plan(layout, seed, horizon, fault_kwargs)

    blind_plan, aware_plan = plan_for(blind), plan_for(aware)
    cases = [
        (_CASE_SINGLE, single, FaultPlan.none(), GatherPolicy.none()),
        (_CASE_BLIND, blind, blind_plan, GatherPolicy.none()),
        (_CASE_BLIND_HEDGE, blind, blind_plan, GatherPolicy(hedge=hedge)),
        (_CASE_AWARE, aware, aware_plan, GatherPolicy.none()),
        (
            _CASE_AWARE_FULL,
            aware,
            aware_plan,
            GatherPolicy(
                replicate=ReplicatedReadPolicy(replicas=int(setup["replicas"])),
                hedge=hedge,
                partial=partial,
            ),
        ),
    ]

    rows: List[ShardCaseResult] = []
    for label, layout, plan, gather_policy in cases:
        gather = ShardGatherModel(
            layout, network=network, policy=gather_policy,
            fault_plan=plan, seed=seed,
        )
        scheduler = ResilientScheduler(
            [Replica(platform, service_model)],
            BatchingPolicy(
                max_batch=batch_size, batch_timeout_s=batch_timeout_s
            ),
            fault_plan=None,
            seed=seed,
            gather=gather,
        )
        rows.append(
            ShardCaseResult(
                label=label,
                layout=layout,
                result=scheduler.run(qps, num_queries=queries),
            )
        )

    return ShardMatrix(
        model=model_name,
        platform=platform,
        scenario=scenario,
        seed=seed,
        queries=queries,
        qps=qps,
        batch_size=batch_size,
        shards=blind.num_shards,
        sharding=blind.sharding,
        rows=rows,
    )


def matrix_records(matrix: ShardMatrix):
    """Ledger records for every matrix row, tagged per placement/policy.

    Fingerprints reuse the real platform fingerprint with the row tag
    appended to the platform field (``broadwell+shard-blind4``), so
    shard baselines never collide with the plain serving baselines.
    """
    from repro.ledger import fingerprint_for, record_schedule

    base = fingerprint_for(
        matrix.model, matrix.platform, matrix.batch_size, seed=matrix.seed
    )
    records = []
    for row in matrix.rows:
        tag = f"{CASE_TAGS[row.label]}{row.layout.num_shards}"
        fp = replace(base, platform=f"{base.platform}+{tag}")
        record = record_schedule(
            row.result,
            fp,
            matrix.batch_size,
            kind="shard",
        )
        record.scalars["arrival_qps"] = matrix.qps
        for key, value in row.layout.scalars().items():
            record.scalars[f"layout.{key}"] = value
        records.append(record)
    return records
