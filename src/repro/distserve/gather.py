"""Fault-aware distributed embedding gathers.

One batched gather fans out to every shard the layout routes lookups
to; the gather completes when the *slowest* required shard response is
in. Shards are first-class fault domains: each shard name is a target
in a standard :class:`~repro.resilience.faults.FaultPlan`, so
slowdown windows model a degraded shard server, crash windows model a
dead one, and network-degradation windows
(:class:`~repro.resilience.faults.NetworkDegradationWindow`) scale the
RPC bandwidth term — all seeded and deterministic, reusing the exact
injector machinery the replica level uses.

Three gather-side robustness policies:

* :class:`ReplicatedReadPolicy` — the hot (replicated) fraction of a
  shard's lookups is read from all R holders concurrently; the gather
  takes the ``quorum``-th fastest response (quorum 1 = fastest-of-R).
* :class:`GatherHedgePolicy` — any single-holder RPC still outstanding
  after ``delay_s`` is reissued (fresh straggler draw, fresh drop
  roll); the faster of the two wins.
* :class:`PartialGatherPolicy` — when a piece is lost (shard crashed
  mid-RPC or the response dropped) the client waits at most
  ``wait_budget_s`` then serves the query *without* those rows:
  ``impute_mean`` substitutes the table's mean embedding,
  ``cached`` serves stale cached rows for the replicated hot set and
  imputes the rest. Lost-quality lookups are tracked as counters —
  graceful degradation is observable, never silent. With no partial
  policy the gather *blocks*: it retries against the shard until it
  recovers, which is exactly the fan-out tail blow-up the scenario
  reproduces.

Determinism: every stochastic decision is keyed by
``(seed, shard, gather index, attempt)`` through the same splitmix64
hash as replica faults, so toggling any gather policy never reshuffles
which RPCs are unlucky. Because the keys are counters, the draws are
table reads: each shard's injector reads attempt-0 straggler hits from
array-hashed chunks, and a batch size's RPC pieces (lookups, network
and lookup seconds) are computed once and reused by every gather of
that size.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.distserve.placement import ShardInfo, ShardLayout
from repro.distserve.topology import NetworkModel
from repro.resilience.faults import FaultInjector, FaultPlan, check_real

if TYPE_CHECKING:
    from repro.telemetry import TimeSeries

__all__ = [
    "ReplicatedReadPolicy",
    "GatherHedgePolicy",
    "PartialGatherPolicy",
    "GatherPolicy",
    "GatherOutcome",
    "ShardGatherModel",
]

#: Client-side retry timeout for blocked (no-partial-policy) gathers.
_BLOCKED_RETRY_S = 2e-3
#: Retry attempts before a blocked gather gives up waiting for quality
#: and serves anyway (bounds simulation time; counted as imputed).
_BLOCKED_MAX_ATTEMPTS = 4


@dataclass(frozen=True)
class ReplicatedReadPolicy:
    """Read the replicated hot set from ``replicas`` holders at once.

    ``quorum = 1`` is fastest-of-R (latency shield); a larger quorum
    models consistency-constrained reads that must hear from several
    holders and therefore give up part of the latency win.
    """

    replicas: int = 2
    quorum: int = 1

    def __post_init__(self) -> None:
        for name in ("replicas", "quorum"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral
            ):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if not (1 <= self.quorum <= self.replicas):
            raise ValueError(
                f"quorum must be in [1, replicas], got {self.quorum}"
            )


@dataclass(frozen=True)
class GatherHedgePolicy:
    """Reissue a straggling shard RPC after ``delay_s``."""

    delay_s: float = 1e-3

    def __post_init__(self) -> None:
        check_real("delay_s", self.delay_s)
        if not (0.0 <= self.delay_s < math.inf):
            raise ValueError(
                f"delay_s: hedge delay must be >= 0 and finite, got "
                f"{self.delay_s!r}"
            )


@dataclass(frozen=True)
class PartialGatherPolicy:
    """Serve queries without lost shards instead of blocking on them."""

    mode: str = "impute_mean"
    wait_budget_s: float = 5e-3

    def __post_init__(self) -> None:
        if self.mode not in ("impute_mean", "cached"):
            raise ValueError(
                f"mode must be 'impute_mean' or 'cached', got {self.mode!r}"
            )
        check_real("wait_budget_s", self.wait_budget_s)
        if not (0.0 < self.wait_budget_s < math.inf):
            raise ValueError(
                f"wait_budget_s must be positive and finite, got "
                f"{self.wait_budget_s!r}"
            )


@dataclass(frozen=True)
class GatherPolicy:
    """Bundle of gather-side policies; all ``None`` = plain fan-out."""

    replicate: Optional[ReplicatedReadPolicy] = None
    hedge: Optional[GatherHedgePolicy] = None
    partial: Optional[PartialGatherPolicy] = None

    @classmethod
    def none(cls) -> "GatherPolicy":
        return cls()

    @classmethod
    def full(cls) -> "GatherPolicy":
        """Every shield on, at defaults."""
        return cls(
            replicate=ReplicatedReadPolicy(),
            hedge=GatherHedgePolicy(),
            partial=PartialGatherPolicy(),
        )

    @property
    def empty(self) -> bool:
        return (
            self.replicate is None
            and self.hedge is None
            and self.partial is None
        )


@dataclass(frozen=True)
class GatherOutcome:
    """One batched gather's contribution to batch service time."""

    #: Total distribution overhead added to the batch (exactly 0.0 for
    #: a colocated single-shard layout — the bit-identical contract).
    seconds: float
    #: Remote shards touched by this gather.
    fanout: int = 0
    #: Hedged RPCs issued during this gather.
    hedged: int = 0
    #: Lookups served as mean-imputed embeddings (quality loss).
    imputed: int = 0
    #: Lookups served from the stale hot-row cache.
    cached: int = 0
    #: At least one piece of this gather was lost and degraded.
    partial: bool = False
    #: The gather blocked waiting for a crashed shard to recover.
    blocked: bool = False
    #: Optional per-piece detail ``(shard, seconds, lost)`` populated
    #: only when the caller asked for it (query-trace capture). The
    #: seconds are copies of the same per-piece costs that entered the
    #: critical-path ``max`` above — recording them never changes
    #: :attr:`seconds`.
    pieces: Tuple[Tuple[str, float, bool], ...] = ()


#: A colocated layout's gather: exactly zero overhead.
_COLOCATED = GatherOutcome(seconds=0.0)


class _Piece(NamedTuple):
    """One RPC's worth of a batch size's gather; no fault changes it."""

    #: The shard the piece's rows live on, and that shard's injector.
    name: str
    injector: FaultInjector
    #: Holders raced for a replicated hot piece (the shard first);
    #: empty for a piece that goes to its shard alone.
    holders: Tuple[FaultInjector, ...]
    #: Hot and cold lookups the piece carries (lost with it).
    hot: int
    cold: int
    #: The shard's per-lookup work/response scale.
    work_scale: float
    #: Network round trip at full bandwidth.
    rpc_s: float
    #: Shard compute for the piece's row fetches.
    lookup_s: float


class _GatherPlan(NamedTuple):
    """A batch size's gather: its pieces, in issue order."""

    pieces: Tuple[_Piece, ...]
    #: Remote shards touched, and the lookups routed to them.
    fanout: int
    lookups: int


class ShardGatherModel:
    """Deterministic cost oracle for sharded gathers under faults.

    Construct once per scenario; call :meth:`start_run` per simulation
    run — each :class:`GatherRun` carries its own gather index and
    counters, so repeated runs of the same scheduler are identical.
    """

    def __init__(
        self,
        layout: ShardLayout,
        network: Optional[NetworkModel] = None,
        policy: Optional[GatherPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        seed: int = 2020,
    ) -> None:
        self.layout = layout
        if network is None:
            network = (
                NetworkModel.local()
                if all(s.local for s in layout.shards)
                else NetworkModel()
            )
        self.network = network
        self.policy = policy or GatherPolicy.none()
        self.fault_plan = fault_plan or FaultPlan.none()
        self.seed = int(seed)
        self.injectors: Dict[str, FaultInjector] = {
            name: FaultInjector(
                self.fault_plan.for_server(name), self.fault_plan.seed, name
            )
            for name in layout.names
        }
        self._plans: Dict[int, _GatherPlan] = {}

    def plan(self, batch_size: int) -> _GatherPlan:
        """The remote pieces of one ``batch_size`` gather, built once."""
        plan = self._plans.get(batch_size)
        if plan is None:
            plan = self._plans[batch_size] = self._build_plan(batch_size)
        return plan

    def rpc_seconds(
        self, lookups: int, work_scale: float, bandwidth_scale: float = 1.0
    ) -> float:
        """Network round trip of an RPC carrying ``lookups`` rows."""
        layout = self.layout
        return self.network.rpc_seconds(
            lookups * layout.request_bytes_per_lookup,
            lookups * layout.response_bytes_per_lookup * work_scale,
            bandwidth_scale=bandwidth_scale,
        )

    def _build_plan(self, batch_size: int) -> _GatherPlan:
        replicate = self.policy.replicate
        remote = [
            p for p in self.layout.partition(batch_size) if not p.shard.local
        ]
        pieces: List[_Piece] = []
        for part in remote:
            shard = part.shard
            ws = shard.work_scale
            # Hot/cold split is a *layout* property: hot rows are cached
            # on their holders whether or not replicated reads are on.
            n_hot = (
                int(round(part.lookups * shard.replicated_mass))
                if shard.replicated_mass > 0.0 else 0
            )
            n_cold = part.lookups - n_hot
            hot_work = n_hot * ws * shard.hot_work_scale
            cold_work = n_cold * ws
            if replicate is not None and shard.replica_names and n_hot > 0:
                # Race the replicated hot set across holders; the cold
                # remainder only lives here, so it goes out alone.
                holders = tuple(
                    self.injectors[name] for name in (shard.name,)
                    + shard.replica_names[: max(0, replicate.replicas - 1)]
                )
                pieces.append(self._piece(shard, holders, n_hot, 0, hot_work))
                if n_cold > 0:
                    pieces.append(self._piece(shard, (), 0, n_cold, cold_work))
            else:
                pieces.append(self._piece(shard, (), n_hot, n_cold,
                                          hot_work + cold_work))
        return _GatherPlan(
            tuple(pieces), len(remote), sum(p.lookups for p in remote)
        )

    def _piece(self, shard: ShardInfo, holders: Tuple[FaultInjector, ...],
               hot: int, cold: int, work: float) -> _Piece:
        ws = shard.work_scale
        return _Piece(
            shard.name, self.injectors[shard.name], holders, hot, cold, ws,
            self.rpc_seconds(hot + cold, ws),
            self.layout.hardware.lookup_seconds(work),
        )

    def start_run(self) -> "GatherRun":
        return GatherRun(self)

    # -- fault-window export (mirrors the replica-level emission) ------------

    def fault_windows(self) -> List[Tuple[str, str, float, float]]:
        """(shard, kind, start, end) for every injected shard window."""
        return [
            (name, "network" if kind == "pcie" else kind, w.start_s, w.end_s)
            for name in self.layout.names
            for kind, w in self.fault_plan.for_server(name).windows()
        ]

    def emit_fault_windows(self, ts: "TimeSeries") -> None:
        """Shard windows -> ``faults.window_active_s`` + shard states.

        Uses the same counter track the replica level uses, so the
        monitor's fault-correlation logic needs no changes to attribute
        tail excursions to shard faults.
        """
        for name, kind, start, end in self.fault_windows():
            ts.count_interval("faults.window_active_s", start, end)
            if kind == "crash":
                ts.mark_state_interval(f"shard.{name}", start, end, "crashed")
            else:
                ts.mark_state_interval(f"shard.{name}", start, end, "degraded")

    def trace_fault_windows(self, tracer) -> None:
        from repro.telemetry.chrome_trace import (
            REPLICA_LANE_FAULT,
            SHARD_PID_BASE,
        )

        index = {name: i for i, name in enumerate(self.layout.names)}
        for name, kind, start, end in self.fault_windows():
            tracer.add_span(
                f"{name}.{kind}", start, end - start,
                category="distserve.fault",
                tid=REPLICA_LANE_FAULT,
                pid=SHARD_PID_BASE + index[name],
                process=name,
            )


class GatherRun:
    """Per-simulation-run gather state: index stream + counters."""

    _COUNTER_KEYS = (
        "gathers", "fanout_rpcs", "remote_lookups", "hedged_rpcs",
        "hedge_wins", "replicated_reads", "quorum_failures",
        "partial_gathers", "imputed_lookups", "cached_lookups",
        "dropped_rpcs", "crashed_rpcs", "straggler_rpcs",
        "net_degraded_rpcs", "blocked_gathers",
    )

    def __init__(self, model: ShardGatherModel) -> None:
        self.model = model
        self.index = 0
        self.counts: Dict[str, float] = {k: 0 for k in self._COUNTER_KEYS}
        self.counts["blocked_wait_s"] = 0.0

    # -- one RPC attempt ------------------------------------------------------

    def _rpc(
        self, inj: FaultInjector, piece: _Piece, t: float, gidx: int,
        attempt: int,
    ) -> Optional[float]:
        """Latency of one shard RPC issued at ``t``; None if lost."""
        counts = self.counts
        if inj.crashed_at(t) is not None:
            counts["crashed_rpcs"] += 1
            return None
        scale = inj.pcie_scale(t)
        if scale < 1.0:
            counts["net_degraded_rpcs"] += 1
        if scale == 1.0:
            seconds = piece.rpc_s
        else:
            seconds = self.model.rpc_seconds(
                piece.hot + piece.cold, piece.work_scale, scale
            )
        seconds += piece.lookup_s * inj.slowdown_multiplier(t)
        mult = inj.straggler_multiplier(gidx, attempt)
        if mult > 1.0:
            counts["straggler_rpcs"] += 1
            seconds *= mult
        if inj.crash_during(t, t + seconds) is not None:
            counts["crashed_rpcs"] += 1
            return None
        if inj.should_drop(gidx, attempt):
            counts["dropped_rpcs"] += 1
            return None
        return seconds

    def _single_holder(
        self, piece: _Piece, t: float, gidx: int, attempt_base: int
    ) -> Optional[float]:
        """One holder, with hedging: reissue after the hedge delay."""
        hedge = self.model.policy.hedge
        inj = piece.injector
        r = self._rpc(inj, piece, t, gidx, attempt_base)
        if hedge is None:
            return r
        if r is not None and r <= hedge.delay_s:
            return r
        self.counts["hedged_rpcs"] += 1
        r2 = self._rpc(inj, piece, t + hedge.delay_s, gidx, attempt_base + 1)
        candidates = []
        if r is not None:
            candidates.append(r)
        if r2 is not None:
            candidates.append(hedge.delay_s + r2)
        if not candidates:
            return None
        best = min(candidates)
        if r is None or best < r:
            self.counts["hedge_wins"] += 1
        return best

    def _replicated(
        self, piece: _Piece, t: float, gidx: int
    ) -> Optional[float]:
        """Quorum/fastest-of-R read of a shard's replicated hot set."""
        responses = []
        for hi, holder in enumerate(piece.holders):
            # Distinct attempt stream per holder so draws are
            # independent; hedging does not stack on replicated reads
            # (R-way redundancy already shields stragglers).
            r = self._rpc(holder, piece, t, gidx, 10 + hi)
            if r is not None:
                responses.append(r)
        self.counts["replicated_reads"] += 1
        quorum = min(self.model.policy.replicate.quorum, len(piece.holders))
        if len(responses) < quorum:
            self.counts["quorum_failures"] += 1
            return None
        responses.sort()
        return responses[quorum - 1]

    # -- one batched gather ---------------------------------------------------

    def gather(
        self, batch_size: int, start: float, detail: bool = False
    ) -> GatherOutcome:
        """Distribution overhead of one batched gather issued at ``start``.

        ``detail=True`` additionally returns the per-piece
        ``(shard, seconds, lost)`` breakdown on the outcome; it records
        copies of values this method computes either way, so the
        returned ``seconds`` is bit-identical with the flag on or off.
        """
        model = self.model
        plan = model.plan(batch_size)
        if not plan.pieces:
            # Colocated layout: exactly zero overhead (the shard compute
            # already lives inside the replica's service-time model).
            return _COLOCATED
        gidx = self.index
        self.index += 1
        partial = model.policy.partial
        counts = self.counts
        hedged_before = counts["hedged_rpcs"]
        worst = 0.0
        imputed = 0
        cached = 0
        lost_any = False
        blocked = False
        piece_detail: List[Tuple[str, float, bool]] = []
        # Pieces are settled in issue order; a lost one's blocked
        # recovery only adds to counters, so it may run before the next
        # piece goes out.
        for piece in plan.pieces:
            if piece.holders:
                r = self._replicated(piece, start, gidx)
            else:
                r = self._single_holder(piece, start, gidx, 0)
            if r is not None:
                worst = max(worst, r)
                if detail:
                    piece_detail.append((piece.name, r, False))
                continue
            lost_any = True
            if partial is None:
                # Block: retry against the shard until it recovers.
                blocked = True
                wait, r_rec = self._blocked_recover(piece, start, gidx)
                counts["blocked_wait_s"] += wait
                if r_rec is None:
                    imputed += piece.hot + piece.cold
                    worst = max(worst, wait)
                    if detail:
                        piece_detail.append((piece.name, wait, True))
                else:
                    recovered = wait + r_rec
                    worst = max(worst, recovered)
                    if detail:
                        piece_detail.append((piece.name, recovered, True))
            else:
                if partial.mode == "cached":
                    # Stale cache exists only for the hot set.
                    cached += piece.hot
                    imputed += piece.cold
                else:
                    imputed += piece.hot + piece.cold
                worst = max(worst, partial.wait_budget_s)
                if detail:
                    piece_detail.append(
                        (piece.name, partial.wait_budget_s, True)
                    )
        fanout = plan.fanout
        net = model.network
        counts["gathers"] += 1
        counts["fanout_rpcs"] += fanout
        counts["remote_lookups"] += plan.lookups
        if imputed:
            counts["imputed_lookups"] += imputed
        if cached:
            counts["cached_lookups"] += cached
        if lost_any:
            counts["partial_gathers"] += 1
        if blocked:
            counts["blocked_gathers"] += 1
        return GatherOutcome(
            seconds=(
                fanout * net.client_issue_s
                + worst
                + fanout * net.merge_s_per_shard
            ),
            fanout=fanout,
            hedged=int(counts["hedged_rpcs"] - hedged_before),
            imputed=imputed,
            cached=cached,
            partial=lost_any,
            blocked=blocked,
            pieces=tuple(piece_detail),
        )

    def _blocked_recover(
        self, piece: _Piece, t: float, gidx: int
    ) -> Tuple[float, Optional[float]]:
        """No partial policy: wait out the crash, then retry.

        Returns (wait before the successful/last retry, its latency or
        None). Retries are paced by the client RTO and the shard's
        recovery time — this is the blocking path whose tail cost the
        partial policy exists to avoid.
        """
        inj = piece.injector
        at = t
        for attempt in range(1, _BLOCKED_MAX_ATTEMPTS + 1):
            at = max(at + _BLOCKED_RETRY_S, inj.next_available(at))
            r = self._rpc(inj, piece, at, gidx, 100 + attempt)
            if r is not None:
                return at - t, r
        return at - t, None
