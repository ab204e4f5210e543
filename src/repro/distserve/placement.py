"""Embedding-table partitioning across simulated shard servers.

Three sharding axes (Lui et al., arXiv 2011.02084):

* **row** — each table's rows are spread across shards; the only axis
  that can exploit intra-table Zipf skew, and the only one where
  hot-row replication is meaningful.
* **table** — whole tables are assigned to shards; placement can
  balance load across tables but cannot split a hot table.
* **column** — every table's embedding dimension is sliced across all
  shards; perfectly balanced but *every* gather fans out to all N
  shards, putting each one on the critical path.

Two placement policies:

* :class:`RoundRobinPlacement` (locality-blind) stripes rows/tables
  round-robin, ignoring popularity. Memory and expected load are
  perfectly balanced — but the Zipf hot set is smeared across every
  shard, so each gather's critical path includes each shard and any
  single degraded shard drags the whole fleet's tail.
* :class:`LocalityAwarePlacement` partitions the cold tail evenly and
  *replicates* each group's Zipf hot set (``repro.workloads``
  ``hot_keys``/``hot_mass``) on R holders (default: every shard — the
  hot set is tiny next to the cold tail). Hot lookups are served from
  the holders' caches (the hot set is LLC-resident precisely because
  it is hot), and their redundancy is what lets replicated reads and
  hedging route around a degraded shard.

Routing is expected-value (deterministic): a batch's pooled lookups
are split across shards proportionally to each shard's lookup mass.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.distserve.topology import ShardHardware
from repro.models import RecommendationModel
from repro.workloads.distributions import IndexDistribution, ZipfIndices

__all__ = [
    "ShardInfo",
    "GatherPart",
    "ShardLayout",
    "RoundRobinPlacement",
    "LocalityAwarePlacement",
    "build_layout",
    "SHARDING_KINDS",
]

SHARDING_KINDS = ("row", "table", "column")

#: int64 index + table/offset framing per routed lookup.
_REQUEST_BYTES_PER_LOOKUP = 12.0


@dataclass(frozen=True)
class ShardInfo:
    """One shard server's slice of the embedding layout."""

    name: str
    #: Embedding bytes resident on this shard (incl. replicas it holds).
    memory_bytes: int
    #: Fraction of a query's pooled lookups routed here. Row/table
    #: masses sum to 1 across shards; column sharding routes every
    #: lookup to every shard (mass 1.0 each) with ``work_scale = 1/N``.
    lookup_mass: float
    #: Fraction of *this shard's* lookups that also exist on replicas.
    replicated_mass: float = 0.0
    #: Other holders of this shard's replicated (hot) rows.
    replica_names: Tuple[str, ...] = ()
    #: Per-lookup work/response scale (1/N for column sharding).
    work_scale: float = 1.0
    #: Compute scale for the replicated (hot) fraction: hot rows are
    #: LLC-resident on their holders, so fetching one costs a fraction
    #: of a DRAM-bound cold fetch.
    hot_work_scale: float = 1.0
    #: Colocated with the serving replica — no RPC, no shard compute.
    local: bool = False

    def __post_init__(self) -> None:
        if self.memory_bytes < 0:
            raise ValueError("memory_bytes must be >= 0")
        if not (0.0 <= self.lookup_mass <= 1.0):
            raise ValueError("lookup_mass must be in [0, 1]")
        if not (0.0 <= self.replicated_mass <= 1.0):
            raise ValueError("replicated_mass must be in [0, 1]")
        if not (0.0 < self.work_scale <= 1.0):
            raise ValueError("work_scale must be in (0, 1]")
        if not (0.0 < self.hot_work_scale <= 1.0):
            raise ValueError("hot_work_scale must be in (0, 1]")


@dataclass(frozen=True)
class GatherPart:
    """One shard's slice of one batched gather."""

    shard: ShardInfo
    #: Routed lookups (index count sent to this shard).
    lookups: int
    #: Row-fetch work units (= lookups, scaled by ``work_scale``).
    work: float


@dataclass(frozen=True)
class ShardLayout:
    """A full placement: every shard's slice plus routing constants."""

    shards: Tuple[ShardInfo, ...]
    #: Pooled embedding lookups per query across all groups.
    lookups_per_query: int
    #: Mass-weighted response bytes per lookup (embedding row slice).
    response_bytes_per_lookup: float
    hardware: ShardHardware
    sharding: str = "row"
    policy: str = "blind"
    request_bytes_per_lookup: float = _REQUEST_BYTES_PER_LOOKUP

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("layout needs at least one shard")
        if self.sharding not in SHARDING_KINDS:
            raise ValueError(
                f"sharding must be one of {SHARDING_KINDS}, got {self.sharding!r}"
            )
        if self.lookups_per_query <= 0:
            raise ValueError("lookups_per_query must be positive")
        names = [s.name for s in self.shards]
        if len(set(names)) != len(names):
            raise ValueError("shard names must be unique")
        for s in self.shards:
            unknown = set(s.replica_names) - set(names)
            if unknown:
                raise ValueError(
                    f"shard {s.name!r} references unknown replicas: "
                    f"{sorted(unknown)}"
                )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.shards)

    def by_name(self, name: str) -> ShardInfo:
        for s in self.shards:
            if s.name == name:
                return s
        raise KeyError(name)

    def hottest(self) -> ShardInfo:
        """The shard carrying the most lookup mass (ties: layout order)."""
        best = self.shards[0]
        for s in self.shards[1:]:
            if s.lookup_mass > best.lookup_mass:
                best = s
        return best

    def memory_imbalance(self) -> float:
        """max/mean shard memory (1.0 = perfectly balanced)."""
        sizes = [s.memory_bytes for s in self.shards]
        mean = sum(sizes) / len(sizes)
        return max(sizes) / mean if mean > 0 else 1.0

    def load_imbalance(self) -> float:
        """max/mean expected per-shard work (1.0 = perfectly balanced)."""
        loads = [s.lookup_mass * s.work_scale for s in self.shards]
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean > 0 else 1.0

    def partition(self, batch_size: int) -> Tuple[GatherPart, ...]:
        """Split one batch's pooled lookups into per-shard RPC parts.

        Expected-value routing: shard ``i`` receives
        ``round(batch * lookups_per_query * mass_i)`` lookups, with the
        rounding residual assigned to the hottest shard so lookups are
        conserved exactly. Shards receiving zero lookups are not
        touched (no RPC).
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        total = batch_size * self.lookups_per_query
        counts: List[int] = []
        for s in self.shards:
            if self.sharding == "column":
                counts.append(total)
            else:
                counts.append(int(round(total * s.lookup_mass)))
        if self.sharding != "column":
            residual = total - sum(counts)
            if residual != 0:
                hot = self.shards.index(self.hottest())
                counts[hot] = max(0, counts[hot] + residual)
        parts = []
        for s, n in zip(self.shards, counts):
            if n <= 0:
                continue
            parts.append(GatherPart(shard=s, lookups=n, work=n * s.work_scale))
        return tuple(parts)

    def scalars(self) -> Dict[str, float]:
        """Layout summary for ledger records and reports."""
        return {
            "shards": float(self.num_shards),
            "memory_imbalance": float(self.memory_imbalance()),
            "load_imbalance": float(self.load_imbalance()),
            "replicated_mass": float(
                sum(s.lookup_mass * s.replicated_mass for s in self.shards)
            ),
            "max_shard_gb": max(s.memory_bytes for s in self.shards) / 1e9,
        }


@dataclass(frozen=True)
class RoundRobinPlacement:
    """Locality-blind striping: rows/tables round-robin across shards."""

    name: str = field(default="blind", init=False)

    def assign(
        self,
        groups: Sequence,
        num_shards: int,
        distribution: IndexDistribution,
        sharding: str,
    ) -> List[dict]:
        shards = [
            {"memory": 0.0, "mass": 0.0, "replicated": 0.0, "replicas": (),
             "hot_scale": 1.0}
            for _ in range(num_shards)
        ]
        total_lookups = sum(g.total_lookups for g in groups)
        if sharding == "table":
            table_index = 0
            for g in groups:
                per_table_mass = g.lookups_per_table / total_lookups
                table_bytes = g.rows * g.dim * 4
                for _ in range(g.num_tables):
                    s = shards[table_index % num_shards]
                    s["memory"] += table_bytes
                    s["mass"] += per_table_mass
                    table_index += 1
            return shards
        for g in groups:
            g_mass = g.total_lookups / total_lookups
            for s in shards:
                s["memory"] += g.weight_bytes / num_shards
                if sharding == "column":
                    s["mass"] += g_mass  # every lookup hits every shard
                else:  # row striping
                    s["mass"] += g_mass / num_shards
        return shards


@dataclass(frozen=True)
class LocalityAwarePlacement:
    """Partition the cold tail; replicate and cache the Zipf hot set.

    * **row**: the hottest ``hot_k`` rows of each table (the
      ``hot_keys`` rank set) are replicated on ``replicas`` holders
      (default: every shard — the hot set is small) and served from
      their LLC (``cache_speedup`` of a DRAM fetch); cold rows stripe
      evenly. Hot lookups route alongside each shard's cold share, so
      expected load stays balanced while the hot mass gains the
      redundancy that replicated reads and hedging exploit.
    * **table**: greedy longest-processing-time balancing of whole
      tables (no row-granular hot set to replicate).
    * **column**: placement-invariant; identical to round-robin.
    """

    hot_k: int = 1024
    #: Holders of each hot set; ``None`` = every shard.
    replicas: Optional[int] = None
    #: Hot-row fetch cost relative to a DRAM-bound cold fetch (the hot
    #: set is LLC-resident on its holders).
    cache_speedup: float = 0.15
    name: str = field(default="locality", init=False)

    def __post_init__(self) -> None:
        if self.hot_k <= 0:
            raise ValueError("hot_k must be positive")
        if self.replicas is not None and self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not (0.0 < self.cache_speedup <= 1.0):
            raise ValueError("cache_speedup must be in (0, 1]")

    def assign(
        self,
        groups: Sequence,
        num_shards: int,
        distribution: IndexDistribution,
        sharding: str,
    ) -> List[dict]:
        if sharding == "column":
            return RoundRobinPlacement().assign(
                groups, num_shards, distribution, sharding
            )
        shards = [
            {"memory": 0.0, "mass": 0.0, "replicated": 0.0, "replicas": (),
             "hot_scale": 1.0}
            for _ in range(num_shards)
        ]
        total_lookups = sum(g.total_lookups for g in groups)
        if sharding == "table":
            # LPT: heaviest tables first onto the least-loaded shard.
            tables = []
            for gi, g in enumerate(groups):
                per_table_mass = g.lookups_per_table / total_lookups
                for ti in range(g.num_tables):
                    tables.append((per_table_mass, g.rows * g.dim * 4, gi, ti))
            tables.sort(key=lambda t: (-t[0], t[2], t[3]))
            for mass, nbytes, _, _ in tables:
                idx = min(range(num_shards), key=lambda i: (shards[i]["mass"], i))
                shards[idx]["memory"] += nbytes
                shards[idx]["mass"] += mass
            return shards
        replicas = (
            num_shards if self.replicas is None
            else min(self.replicas, num_shards)
        )
        hot_contrib = [0.0] * num_shards
        for gi, g in enumerate(groups):
            g_mass = g.total_lookups / total_lookups
            hot_rows = distribution.hot_keys(g.rows, self.hot_k)
            hot_count = int(len(hot_rows))
            hot_mass = distribution.hot_mass(g.rows, self.hot_k)
            hot_bytes = hot_count * g.dim * 4 * g.num_tables
            cold_bytes = max(0, g.weight_bytes - hot_bytes)
            # Holders cycle with the group index so partial replication
            # still spreads hot sets across the fleet.
            holders = [(gi + r) % num_shards for r in range(replicas)]
            for h in holders:
                shards[h]["memory"] += hot_bytes
                shards[h]["mass"] += g_mass * hot_mass / replicas
                hot_contrib[h] += g_mass * hot_mass / replicas
            for s in shards:
                s["memory"] += cold_bytes / num_shards
                s["mass"] += g_mass * (1.0 - hot_mass) / num_shards
        for i, s in enumerate(shards):
            if hot_contrib[i] > 0.0 and s["mass"] > 0.0:
                s["replicated"] = min(1.0, hot_contrib[i] / s["mass"])
                s["hot_scale"] = self.cache_speedup
                if replicas > 1:
                    s["replicas"] = tuple(
                        (i + r) % num_shards
                        for r in range(1, replicas)
                        if hot_contrib[(i + r) % num_shards] > 0.0
                    )
        return shards


def build_layout(
    model,
    num_shards: int,
    *,
    sharding: str = "row",
    placement=None,
    distribution: Optional[IndexDistribution] = None,
    hardware: Optional[ShardHardware] = None,
    shard_platform=None,
) -> ShardLayout:
    """Partition ``model``'s embedding groups into a :class:`ShardLayout`.

    A single-shard layout is colocated by construction (``local=True``
    with :meth:`ShardHardware.local` hardware): you only pay the
    distribution tax once the tables no longer fit one node.
    """
    if not isinstance(model, RecommendationModel):
        raise TypeError(
            "model must be a RecommendationModel (see build_model), "
            f"got {model!r}"
        )
    if isinstance(num_shards, bool) or not isinstance(
        num_shards, numbers.Integral
    ):
        raise TypeError(f"num_shards must be an integer, got {num_shards!r}")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if sharding not in SHARDING_KINDS:
        raise ValueError(
            f"sharding must be one of {SHARDING_KINDS}, got {sharding!r}"
        )
    groups = list(model.embedding_groups())
    if not groups:
        raise ValueError(f"model {model!r} has no embedding groups")
    if placement is None:
        placement = LocalityAwarePlacement()
    if distribution is None:
        distribution = ZipfIndices()
    total_lookups = sum(g.total_lookups for g in groups)
    response_bpl = sum(
        (g.total_lookups / total_lookups) * g.dim * 4 for g in groups
    )
    if num_shards == 1:
        shard = ShardInfo(
            name="shard0",
            memory_bytes=int(sum(g.weight_bytes for g in groups)),
            lookup_mass=1.0,
            local=True,
        )
        return ShardLayout(
            shards=(shard,),
            lookups_per_query=total_lookups,
            response_bytes_per_lookup=response_bpl,
            hardware=ShardHardware.local(),
            sharding=sharding,
            policy=placement.name,
        )
    if hardware is None:
        if shard_platform is None:
            from repro.hw.platform import BROADWELL

            shard_platform = BROADWELL
        hardware = ShardHardware.from_platform(shard_platform, response_bpl)
    work_scale = 1.0 / num_shards if sharding == "column" else 1.0
    assigned = placement.assign(groups, num_shards, distribution, sharding)
    names = [f"shard{i}" for i in range(num_shards)]
    shards = []
    for i, slot in enumerate(assigned):
        shards.append(
            ShardInfo(
                name=names[i],
                memory_bytes=int(round(slot["memory"])),
                lookup_mass=min(1.0, float(slot["mass"])),
                replicated_mass=float(slot["replicated"]),
                replica_names=tuple(names[j] for j in slot["replicas"]),
                work_scale=work_scale,
                hot_work_scale=float(slot.get("hot_scale", 1.0)),
            )
        )
    return ShardLayout(
        shards=tuple(shards),
        lookups_per_query=total_lookups,
        response_bytes_per_lookup=response_bpl,
        hardware=hardware,
        sharding=sharding,
        policy=placement.name,
    )
