"""Distributed (sharded) embedding serving simulation.

Production recommendation models carry embedding tables larger than
one node, so serving partitions them across shard servers and every
query's pooled gathers fan out over the network (ROADMAP:
capacity-driven scale-out; Lui et al., arXiv 2011.02084). This package
adds that layer to the serving stack:

* :mod:`repro.distserve.topology` — deterministic network/RPC cost
  model (per-hop latency, bandwidth, serialization) and shard-server
  gather hardware derived from platform DRAM bandwidth.
* :mod:`repro.distserve.placement` — row/table/column sharding with
  pluggable placement policies: locality-blind round-robin striping
  vs. locality-aware hot-set homing + replication built on the Zipf
  ``hot_keys`` helpers in :mod:`repro.workloads`.
* :mod:`repro.distserve.gather` — fault-aware gather execution: shard
  fault domains (reusing :class:`~repro.resilience.faults.FaultPlan`),
  quorum/fastest-of-R replicated reads, hedged RPCs, and graceful
  partial-gather degradation with quality counters.
* :mod:`repro.distserve.scenario` — the ``repro shard`` placement ×
  policy matrix and its monitor/ledger integration.

The gather model plugs into
:class:`~repro.resilience.engine.ResilientScheduler` via its
``gather=`` argument; a colocated single-shard layout contributes
exactly ``0.0`` seconds, keeping the engine bit-identical to the
non-distributed path (golden-pinned).

See ``docs/sharding.md`` for the full model and scenario walkthrough.
"""

from repro.distserve.gather import (
    GatherHedgePolicy,
    GatherOutcome,
    GatherPolicy,
    PartialGatherPolicy,
    ReplicatedReadPolicy,
    ShardGatherModel,
)
from repro.distserve.placement import (
    SHARDING_KINDS,
    GatherPart,
    LocalityAwarePlacement,
    RoundRobinPlacement,
    ShardInfo,
    ShardLayout,
    build_layout,
)
from repro.distserve.scenario import (
    ShardCaseResult,
    ShardMatrix,
    default_shard_scenarios,
    hottest_shard_plan,
    matrix_records,
    run_shard_matrix,
    shard_layout,
    split_shard_kwargs,
    synthesize_shard_plan,
)
from repro.distserve.topology import NetworkModel, ShardHardware

__all__ = [
    # topology
    "NetworkModel",
    "ShardHardware",
    # placement
    "ShardInfo",
    "ShardLayout",
    "GatherPart",
    "RoundRobinPlacement",
    "LocalityAwarePlacement",
    "build_layout",
    "SHARDING_KINDS",
    # gather
    "GatherPolicy",
    "ReplicatedReadPolicy",
    "GatherHedgePolicy",
    "PartialGatherPolicy",
    "GatherOutcome",
    "ShardGatherModel",
    # scenario
    "ShardMatrix",
    "ShardCaseResult",
    "run_shard_matrix",
    "matrix_records",
    "synthesize_shard_plan",
    "split_shard_kwargs",
    "shard_layout",
    "hottest_shard_plan",
    "default_shard_scenarios",
]
