"""Seeded, deterministic fault injection for the serving simulation.

Real recommendation fleets are perturbed constantly: thermal throttling
and noisy neighbors slow a box for seconds at a time, stragglers stretch
individual batches with heavy tails, responses get lost, PCIe links
train down to fewer lanes, and whole servers crash and come back. The
discrete-event scheduler is only a useful policy testbed if those
perturbations exist *and are reproducible*, so every fault here is a
pure function of a :class:`FaultPlan` (explicit windows + rates) and a
seed — no hidden RNG state, no draw-order dependence.

Stochastic decisions (stragglers, response drops) are keyed by stable
identifiers — ``(replica, batch index)`` and ``(query id, attempt)`` —
through a splitmix64 hash, so toggling a resilience policy on or off
never reshuffles which queries are unlucky. That is what makes
policy-on vs. policy-off comparisons under the same seed fair.

Because every draw is a pure function of its keys, an injector hashes
which batch indices straggle a chunk of indices at a time
(:func:`hashed_uniform_array`) and reads the answers from that table.
"""

from __future__ import annotations

import math
import numbers
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SlowdownWindow",
    "CrashWindow",
    "PcieDegradationWindow",
    "NetworkDegradationWindow",
    "StragglerSpec",
    "DropSpec",
    "ServerFaults",
    "FaultPlan",
    "FaultInjector",
    "hashed_uniform",
    "hashed_uniform_array",
    "check_real",
]

_MASK64 = (1 << 64) - 1
#: splitmix64's increment and its two mixing multipliers.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(x: int) -> int:
    x = (x + _GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def hashed_uniform(*keys: int) -> float:
    """Uniform [0, 1) from integer keys — stable across runs/platforms."""
    x = 0
    for k in keys:
        x = _splitmix64((x ^ (int(k) & _MASK64)) & _MASK64)
    return (x >> 11) / float(1 << 53)


def _key_column(key: Any) -> np.ndarray:
    """One key column as ``uint64``, wrapped mod 2**64 like ``& _MASK64``."""
    if isinstance(key, numbers.Integral):
        return np.array(int(key) & _MASK64, dtype=np.uint64)
    column = np.asarray(key)
    if column.dtype.kind in "iu":
        # A signed -> unsigned cast wraps two's complement, mod 2**64.
        return column.astype(np.uint64)
    raise TypeError(
        f"key_columns must hold integers, got dtype {column.dtype}"
    )


def hashed_uniform_array(*key_columns: Any) -> np.ndarray:
    """:func:`hashed_uniform` element-wise over broadcast key columns.

    Each column is an integer or an integer array; the draws equal the
    scalar function's bit for bit. ``uint64`` multiplies wrap mod 2**64
    as the scalar ``& _MASK64`` does, and ``(x >> 11) / 2**53`` is exact
    in float64.
    """
    columns = [_key_column(k) for k in key_columns]
    x = np.zeros(np.broadcast_shapes(*(c.shape for c in columns)),
                 dtype=np.uint64)
    gamma, mix1, mix2 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
    with np.errstate(over="ignore"):
        for column in columns:
            z = (x ^ column) + gamma
            z = (z ^ (z >> np.uint64(30))) * mix1
            z = (z ^ (z >> np.uint64(27))) * mix2
            x = z ^ (z >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def check_real(name: str, value: Any) -> None:
    """Reject anything but a real number (a ``bool`` included), naming
    ``name``. Range checks are the caller's, written so NaN fails them."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")


def _check_window(start_s: float, end_s: float) -> None:
    check_real("start_s", start_s)
    check_real("end_s", end_s)
    if not (0.0 <= start_s < end_s):
        raise ValueError(
            f"fault window must satisfy 0 <= start < end, got "
            f"[{start_s}, {end_s})"
        )


@dataclass(frozen=True)
class SlowdownWindow:
    """Thermal-throttle / noisy-neighbor window: service time scales
    by ``multiplier`` for every batch *starting* inside [start, end)."""

    start_s: float
    end_s: float
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        check_real("multiplier", self.multiplier)
        if not self.multiplier >= 1.0:
            raise ValueError(
                f"multiplier: slowdown multiplier must be >= 1, got "
                f"{self.multiplier!r}"
            )


@dataclass(frozen=True)
class CrashWindow:
    """Server down from ``start_s`` until ``end_s`` (recovery). Batches
    in flight when the crash hits fail at ``start_s``."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)


@dataclass(frozen=True)
class PcieDegradationWindow:
    """PCIe link degradation (lane retraining / congestion): the data-
    communication term of service time is divided by ``bandwidth_scale``
    for batches starting inside the window. Only meaningful for GPU
    platforms, whose service model carries a data-comm component."""

    start_s: float
    end_s: float
    bandwidth_scale: float = 0.25

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        check_real("bandwidth_scale", self.bandwidth_scale)
        if not (0.0 < self.bandwidth_scale <= 1.0):
            raise ValueError(
                f"bandwidth_scale must be in (0, 1], got "
                f"{self.bandwidth_scale!r}"
            )


#: For shard servers the same window models NIC/link degradation — the
#: RPC bandwidth term is divided by ``bandwidth_scale``. Alias so shard
#: plans read naturally while reusing the injector machinery unchanged.
NetworkDegradationWindow = PcieDegradationWindow


@dataclass(frozen=True)
class StragglerSpec:
    """Heavy-tailed per-batch stragglers: with ``probability``, a batch's
    service time is multiplied by a Pareto(``alpha``) draw, capped at
    ``max_multiplier``. Draws are keyed by (replica, batch index)."""

    probability: float = 0.0
    alpha: float = 2.0
    max_multiplier: float = 20.0

    def __post_init__(self) -> None:
        for name in ("probability", "alpha", "max_multiplier"):
            check_real(name, getattr(self, name))
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(
                f"probability: straggler probability must be in [0, 1], "
                f"got {self.probability!r}"
            )
        if not (0.0 < self.alpha < math.inf):
            raise ValueError(
                f"alpha: Pareto alpha must be positive and finite, got "
                f"{self.alpha!r}"
            )
        if not self.max_multiplier >= 1.0:
            raise ValueError(
                f"max_multiplier must be >= 1, got {self.max_multiplier!r}"
            )


@dataclass(frozen=True)
class DropSpec:
    """Lost responses: with ``probability`` an attempt's response never
    reaches the client (the server still did the work). Keyed by
    (query id, attempt) so retries re-roll independently."""

    probability: float = 0.0

    def __post_init__(self) -> None:
        check_real("probability", self.probability)
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(
                f"probability: drop probability must be in [0, 1], got "
                f"{self.probability!r}"
            )


@dataclass(frozen=True)
class ServerFaults:
    """Every fault assigned to one replica."""

    slowdowns: Tuple[SlowdownWindow, ...] = ()
    crashes: Tuple[CrashWindow, ...] = ()
    pcie: Tuple[PcieDegradationWindow, ...] = ()
    stragglers: StragglerSpec = field(default_factory=StragglerSpec)
    drops: DropSpec = field(default_factory=DropSpec)

    def __post_init__(self) -> None:
        # Tolerate lists in hand-written plans.
        object.__setattr__(self, "slowdowns", tuple(self.slowdowns))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "pcie", tuple(self.pcie))

    def windows(self) -> Iterator[Tuple[str, Any]]:
        """``(kind, window)`` for every window: the slowdowns, the
        crashes, then the PCIe (or network) degradations."""
        for w in self.slowdowns:
            yield "slowdown", w
        for w in self.crashes:
            yield "crash", w
        for w in self.pcie:
            yield "pcie", w

    @property
    def empty(self) -> bool:
        return (
            not self.slowdowns
            and not self.crashes
            and not self.pcie
            and self.stragglers.probability == 0.0
            and self.drops.probability == 0.0
        )


_EMPTY_FAULTS = ServerFaults()


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible fault scenario: per-replica faults plus the seed
    that drives every stochastic decision."""

    seed: int = 0
    servers: Mapping[str, ServerFaults] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "servers", dict(self.servers))
        self._validate()

    def _validate(self) -> None:
        """Reject malformed plans with errors naming the offending window.

        Window dataclasses already validate their own bounds, but plans
        can be assembled from deserialized or duck-typed windows, so the
        plan re-checks every window — and crash windows additionally
        must not overlap on the same target (an overlap would make
        "which crash killed this batch" ambiguous and silently distort
        recovery times; slowdown/network windows may overlap, they
        compound multiplicatively by design).
        """
        for name, faults in self.servers.items():
            for kind, windows in (
                ("slowdown", faults.slowdowns),
                ("crash", faults.crashes),
                ("network", faults.pcie),
            ):
                for w in windows:
                    if not (0.0 <= w.start_s < w.end_s):
                        raise ValueError(
                            f"fault plan for target '{name}': {kind} window "
                            f"[{w.start_s}, {w.end_s}) is negative or "
                            f"zero-length (need 0 <= start < end)"
                        )
            crashes = sorted(faults.crashes, key=lambda w: (w.start_s, w.end_s))
            for prev, cur in zip(crashes, crashes[1:]):
                if cur.start_s < prev.end_s:
                    raise ValueError(
                        f"fault plan for target '{name}': crash window "
                        f"[{cur.start_s}, {cur.end_s}) overlaps "
                        f"[{prev.start_s}, {prev.end_s})"
                    )

    def for_server(self, name: str) -> ServerFaults:
        return self.servers.get(name, _EMPTY_FAULTS)

    @property
    def empty(self) -> bool:
        return all(f.empty for f in self.servers.values())

    @classmethod
    def none(cls) -> "FaultPlan":
        """The null plan — injects nothing."""
        return cls()

    @classmethod
    def synthesize(
        cls,
        seed: int,
        server_names: Sequence[str],
        horizon_s: float,
        *,
        slowdown_windows: int = 1,
        slowdown_multiplier: float = 3.0,
        crash_windows: int = 0,
        crash_duration_frac: float = 0.1,
        pcie_windows: int = 0,
        pcie_scale: float = 0.25,
        straggler_probability: float = 0.0,
        drop_probability: float = 0.0,
        targets: Optional[Sequence[str]] = None,
    ) -> "FaultPlan":
        """Generate a random-but-reproducible plan from one seed.

        Windows are placed uniformly inside ``[0.1, 0.9] * horizon_s``
        on the targeted replicas (default: the first server only, the
        usual "primary degrades, fallback is healthy" scenario); each
        window covers ``~20%`` of the horizon (``crash_duration_frac``
        for crashes). Rates apply to every targeted replica.
        """
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        if not server_names:
            raise ValueError("need at least one server name")
        rng = np.random.default_rng(seed)
        targeted = list(targets) if targets is not None else [server_names[0]]
        unknown = set(targeted) - set(server_names)
        if unknown:
            raise ValueError(f"targets not in server_names: {sorted(unknown)}")
        servers: Dict[str, ServerFaults] = {}
        for name in targeted:
            slows = []
            for _ in range(slowdown_windows):
                start = float(rng.uniform(0.1, 0.7)) * horizon_s
                slows.append(
                    SlowdownWindow(start, start + 0.2 * horizon_s,
                                   slowdown_multiplier)
                )
            crashes = []
            for _ in range(crash_windows):
                start = float(rng.uniform(0.1, 0.9 - crash_duration_frac))
                crashes.append(
                    CrashWindow(start * horizon_s,
                                (start + crash_duration_frac) * horizon_s)
                )
            # Drawn starts may collide; serialize overlapping crashes by
            # shifting later windows to start at the previous recovery
            # (plan validation rejects overlapping crashes on a target).
            crashes.sort(key=lambda w: (w.start_s, w.end_s))
            serialized: list = []
            for w in crashes:
                if serialized and w.start_s < serialized[-1].end_s:
                    shift = serialized[-1].end_s
                    w = CrashWindow(shift, shift + (w.end_s - w.start_s))
                serialized.append(w)
            crashes = serialized
            pcie = []
            for _ in range(pcie_windows):
                start = float(rng.uniform(0.1, 0.7)) * horizon_s
                pcie.append(
                    PcieDegradationWindow(start, start + 0.2 * horizon_s,
                                          pcie_scale)
                )
            servers[name] = ServerFaults(
                slowdowns=tuple(slows),
                crashes=tuple(crashes),
                pcie=tuple(pcie),
                stragglers=StragglerSpec(probability=straggler_probability),
                drops=DropSpec(probability=drop_probability),
            )
        return cls(seed=seed, servers=servers)


#: Hash-stream discriminators so the three stochastic fault families
#: never collide even for equal keys.
_STREAM_STRAGGLER = 0x5354524147474C45  # "STRAGGLE"
_STREAM_DROP = 0x44524F5053  # "DROPS"


#: Attempt-0 straggler hits are hashed this many batch indices at a time.
_CHUNK_BITS = 10
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1


class FaultInjector:
    """Deterministic per-replica fault oracle.

    All methods are pure functions of the construction arguments —
    calling them in any order, any number of times, yields the same
    answers. Attempt-0 straggler hits are read from chunks of
    :func:`hashed_uniform_array` draws built on first use.
    """

    def __init__(self, faults: ServerFaults, seed: int, server_name: str) -> None:
        self.faults = faults
        self.seed = int(seed)
        self.server_name = server_name
        self._name_key = zlib.crc32(server_name.encode("utf-8"))
        #: chunk -> one byte per batch index, 1 where attempt 0 straggles.
        self._straggler_hits: Dict[int, bytes] = {}

    # -- windows -------------------------------------------------------------

    def slowdown_multiplier(self, t: float) -> float:
        """Product of every slowdown window active at ``t`` (>= 1)."""
        mult = 1.0
        for w in self.faults.slowdowns:
            if w.start_s <= t < w.end_s:
                mult *= w.multiplier
        return mult

    def pcie_scale(self, t: float) -> float:
        """Effective PCIe bandwidth scale at ``t`` (1.0 = healthy)."""
        scale = 1.0
        for w in self.faults.pcie:
            if w.start_s <= t < w.end_s:
                scale *= w.bandwidth_scale
        return scale

    def crashed_at(self, t: float) -> Optional[CrashWindow]:
        """The crash window covering ``t``, if any (the first listed)."""
        for w in self.faults.crashes:
            if w.start_s <= t < w.end_s:
                return w
        return None

    def crash_during(self, start: float, end: float) -> Optional[CrashWindow]:
        """Earliest crash window intersecting [start, end), if any."""
        hit: Optional[CrashWindow] = None
        for w in self.faults.crashes:
            if w.start_s < end and w.end_s > start:
                if hit is None or w.start_s < hit.start_s:
                    hit = w
        return hit

    def next_available(self, t: float) -> float:
        """Earliest time >= ``t`` the server is outside any crash window."""
        at = t
        # Overlapping windows chain; each window is left at most once.
        for _ in range(len(self.faults.crashes) + 1):
            w = self.crashed_at(at)
            if w is None:
                return at
            at = w.end_s
        return at

    # -- keyed stochastic faults ---------------------------------------------

    def _hit_chunk(self, chunk: int) -> bytes:
        first = chunk << _CHUNK_BITS
        index = np.arange(first, first + (1 << _CHUNK_BITS), dtype=np.int64)
        u = hashed_uniform_array(
            self.seed, self._name_key, _STREAM_STRAGGLER, index
        )
        hits = (u < self.faults.stragglers.probability).tobytes()
        self._straggler_hits[chunk] = hits
        return hits

    def straggler_multiplier(self, batch_index: int, attempt: int = 0) -> float:
        """Service-time multiplier for one batch (1.0 = no straggler).

        ``attempt`` > 0 re-rolls independently (hedged/retried RPCs get
        fresh queue luck); attempt 0 reproduces the legacy keying so
        existing seeds are unchanged. Whether attempt 0 straggles is
        read from a chunk of array draws; only a hit pays a scalar
        draw, for its Pareto tail.
        """
        spec = self.faults.stragglers
        if spec.probability <= 0.0:
            return 1.0
        if attempt == 0:
            chunk = batch_index >> _CHUNK_BITS
            hits = self._straggler_hits.get(chunk)
            if hits is None:
                hits = self._hit_chunk(chunk)
            if not hits[batch_index & _CHUNK_MASK]:
                return 1.0
            # Second, decorrelated draw shapes the Pareto tail.
            v = hashed_uniform(self.seed, self._name_key, _STREAM_STRAGGLER,
                               batch_index, 1)
        else:
            u = hashed_uniform(self.seed, self._name_key, _STREAM_STRAGGLER,
                               batch_index, 2, attempt)
            if u >= spec.probability:
                return 1.0
            v = hashed_uniform(self.seed, self._name_key, _STREAM_STRAGGLER,
                               batch_index, 3, attempt)
        mult = (1.0 - v) ** (-1.0 / spec.alpha)
        return float(min(mult, spec.max_multiplier))

    def should_drop(self, query_id: int, attempt: int) -> bool:
        """Whether this attempt's response is lost on the way back."""
        p = self.faults.drops.probability
        if p <= 0.0:
            return False
        return hashed_uniform(self.seed, self._name_key, _STREAM_DROP,
                              query_id, attempt) < p
