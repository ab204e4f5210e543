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
    """The full ``repro shard`` run bundle. ``setup`` is the
    ``locality`` row's; every row is a variant of it."""

    setup: Any  # ScenarioSetup
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


#: Ledger fingerprint tag (kept short for slugs/keys) per row label, in
#: the rows' fixed order (CLI table + ledger tags rely on it).
CASE_TAGS = {
    "single-node": "shard-single",
    "blind": "shard-blind",
    "blind+hedge": "shard-blindh",
    "locality": "shard-loc",
    "locality+policies": "shard-locp",
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

    Rows are variants of :func:`repro.monitor.scenario.build_scenario`
    with the layout arguments as scenario overrides. Every row sees the
    same arrivals, the same single serving replica (no replica-level
    faults or policies — the matrix isolates the *distribution* layer),
    and the same seeded shard fault plan aimed at each layout's hottest
    shard.
    """
    from repro.models import build_model
    from repro.monitor.scenario import build_scenario, scenario_kwargs
    from repro.resilience import ResiliencePolicy

    layout_keys = dict(shards=shards, sharding=sharding, alpha=alpha,
                       hot_k=hot_k, replicas=replicas)
    is_shard, _, fault_kwargs = split_shard_kwargs(scenario_kwargs(scenario))
    if not is_shard:
        raise ValueError(
            f"scenario {scenario!r} is not a shard scenario "
            f"(no {SHARD_FAULTS_KEY!r} marker)"
        )
    built = build_scenario(
        model_name, platform, scenario, batch_size=batch_size,
        queries=queries, qps=qps, seed=seed, scenario_overrides=layout_keys,
    )
    model = build_model(model_name)
    # Explicit even for the single-node row, which would otherwise get
    # the colocated ``NetworkModel.local()`` default.
    network = NetworkModel()

    single = shard_layout(model, layout_keys, RoundRobinPlacement(), 1)
    blind = shard_layout(model, layout_keys, RoundRobinPlacement())
    # The hot set is replicated on every shard (it is tiny); ``replicas``
    # only sets the replicated-*read* fan-out, so the aware layout stays
    # load-balanced regardless of how many holders a read races.
    aware = built.gather.layout

    # Policy time constants derive from the healthy gather cost of the
    # blind layout, so they are deterministic and scale with the model.
    probe = ShardGatherModel(blind, network=network).start_run().gather(
        batch_size, 0.0
    )
    healthy_gather_s = max(probe.seconds, 1e-5)
    hedge = GatherHedgePolicy(delay_s=2.0 * healthy_gather_s)
    partial = PartialGatherPolicy(wait_budget_s=4.0 * healthy_gather_s)

    # The matrix's load rule. Offered load is calibrated against the
    # *sharded* service time (model compute + healthy blind gather), so
    # every row runs at the same moderate utilization and p99 reflects
    # fault handling, not queueing collapse. The batching timeout is
    # the batch fill time so batches run near-full — gather fan-out
    # cost scales with batch size, and half-empty batches would hide it.
    service_s = built.replicas[0].service_model.seconds(batch_size)
    peak = batch_size / (service_s + healthy_gather_s)
    qps = qps if qps is not None else 0.8 * peak
    horizon = queries / qps

    base = replace(
        built, qps=qps, horizon_s=horizon, batch_timeout_s=batch_size / qps
    )

    def variant(layout, plan, policy=None):
        return replace(base, plan=plan, gather=ShardGatherModel(
            layout, network=network, policy=policy, fault_plan=plan,
            seed=seed,
        ))

    blind_plan, aware_plan = (
        hottest_shard_plan(layout, seed, horizon, fault_kwargs)
        for layout in (blind, aware)
    )
    full = GatherPolicy(
        replicate=ReplicatedReadPolicy(replicas=replicas),
        hedge=hedge,
        partial=partial,
    )
    cases = {
        # A colocated single node has no shard servers to fault.
        "single-node": variant(single, FaultPlan.none()),
        "blind": variant(blind, blind_plan),
        "blind+hedge": variant(blind, blind_plan, GatherPolicy(hedge=hedge)),
        "locality": variant(aware, aware_plan),
        "locality+policies": variant(aware, aware_plan, full),
    }
    rows = [
        ShardCaseResult(
            label=label,
            layout=case.gather.layout,
            result=case.scheduler(ResiliencePolicy()).run(
                qps, num_queries=queries
            ),
        )
        for label, case in cases.items()
    ]
    return ShardMatrix(
        setup=cases["locality"], shards=blind.num_shards,
        sharding=blind.sharding, rows=rows,
    )


def matrix_records(matrix: ShardMatrix):
    """Ledger records for every matrix row, tagged per placement/policy.

    Fingerprints reuse the real platform fingerprint with the row tag
    appended to the platform field (``broadwell+shard-blind4``), so
    shard baselines never collide with the plain serving baselines.
    """
    from repro.ledger import fingerprint_for, record_schedule

    setup = matrix.setup
    base = fingerprint_for(
        setup.model, setup.platform, setup.batch_size, seed=setup.seed
    )
    records = []
    for row in matrix.rows:
        tag = f"{CASE_TAGS[row.label]}{row.layout.num_shards}"
        fp = replace(base, platform=f"{base.platform}+{tag}")
        record = record_schedule(
            row.result,
            fp,
            setup.batch_size,
            kind="shard",
        )
        record.scalars["arrival_qps"] = setup.qps
        for key, value in row.layout.scalars().items():
            record.scalars[f"layout.{key}"] = value
        records.append(record)
    return records
