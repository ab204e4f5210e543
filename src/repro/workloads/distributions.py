"""Categorical-index distributions for synthetic query generation.

Production recommendation traffic is heavily skewed: a small set of
popular items absorbs most lookups (this is what gives embedding
gathers their residual cache locality). Following DeepRecSys, we model
index popularity as a Zipf distribution with configurable exponent,
with a uniform distribution available as the no-locality baseline.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "IndexDistribution",
    "UniformIndices",
    "ZipfIndices",
    "hot_keys",
    "hot_mass",
]

#: Rank-support cap shared by sampling and the hot-set helpers; ranks
#: beyond it are spread over the row space in fixed-stride groups.
_SUPPORT_CAP = 1 << 20


@lru_cache(maxsize=8)
def _zipf_rank_weights(support: int, alpha: float) -> "np.ndarray":
    """Unnormalized rank weights ``r**-alpha`` for ranks ``1..support``."""
    ranks = np.arange(1, support + 1, dtype=np.float64)
    return ranks ** (-alpha)


def _zipf_partial_mass(
    support: int, alpha: float, lo_rank: int, hi_rank: int
) -> float:
    """Probability mass of the 0-based rank range ``[lo, hi)``."""
    weights = _zipf_rank_weights(support, alpha)
    total = float(weights.sum())
    lo = max(0, min(lo_rank, support))
    hi = max(lo, min(hi_rank, support))
    return float(weights[lo:hi].sum()) / total


class IndexDistribution:
    """Samples embedding-table indices in ``[0, rows)``."""

    def sample(
        self, rng: np.random.Generator, rows: int, shape: "tuple[int, ...]"
    ) -> np.ndarray:
        raise NotImplementedError

    def expected_locality(self, rows: int) -> float:
        """Rough [0, 1] temporal-locality score for the memory model."""
        raise NotImplementedError

    def hot_keys(self, rows: int, k: int) -> np.ndarray:
        """The ``k`` most popular row indices, hottest first.

        Deterministic (no RNG): derived from the same rank-to-row
        mapping ``sample`` uses, so the returned rows are exactly the
        ones a sampled trace hits most often.
        """
        raise NotImplementedError

    def hot_mass(self, rows: int, k: int) -> float:
        """Fraction of lookups expected to land on ``hot_keys(rows, k)``."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformIndices(IndexDistribution):
    """Every row equally likely — worst-case locality."""

    def sample(self, rng, rows, shape):
        return rng.integers(0, rows, size=shape, dtype=np.int64)

    def expected_locality(self, rows: int) -> float:
        return 0.0

    def hot_keys(self, rows: int, k: int) -> np.ndarray:
        # No popularity skew: every "hot set" is arbitrary; use the
        # first k rows so the result is still deterministic.
        return np.arange(min(k, rows), dtype=np.int64)

    def hot_mass(self, rows: int, k: int) -> float:
        return min(k, rows) / float(rows)


@dataclass(frozen=True)
class ZipfIndices(IndexDistribution):
    """Zipf-ranked popularity with exponent ``alpha``.

    ``alpha`` around 0.6-1.0 matches published production embedding
    access skews; larger alpha means hotter hot rows.
    """

    alpha: float = 0.8

    def __post_init__(self) -> None:
        alpha = self.alpha
        if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real):
            raise TypeError(f"Zipf alpha must be a number, got {alpha!r}")
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(
                f"Zipf alpha must be positive and finite, got {alpha!r}"
            )

    def sample(self, rng, rows, shape):
        # Inverse-CDF sampling over a truncated Zipf. Computing the full
        # rank CDF is O(rows); cap the support used for sampling at 2^20
        # ranks, mapping ranks onto the row space.
        support = min(rows, _SUPPORT_CAP)
        weights = _zipf_rank_weights(support, self.alpha)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        u = rng.random(size=int(np.prod(shape)))
        sampled_ranks = np.searchsorted(cdf, u)
        if rows > support:
            # Spread ranks across the full row space deterministically
            # so indices still cover [0, rows).
            stride = rows // support
            sampled = sampled_ranks * stride + rng.integers(
                0, stride, size=sampled_ranks.shape
            )
        else:
            sampled = sampled_ranks
        return sampled.astype(np.int64).reshape(shape) % rows

    def expected_locality(self, rows: int) -> float:
        # Heavier skew -> more re-touches of hot rows. Saturating map
        # calibrated so alpha=0.8 over 1M rows gives ~0.2 (DeepRecSys'
        # observed reuse for production-like traces).
        return float(min(0.6, 0.25 * self.alpha / 0.8 * (1.0 - 1.0 / np.log2(max(rows, 4)))))

    def hot_keys(self, rows: int, k: int) -> np.ndarray:
        support = min(rows, _SUPPORT_CAP)
        k = min(k, support)
        ranks = np.arange(k, dtype=np.int64)
        if rows > support:
            # Mirror sample(): rank r maps onto the row group starting
            # at r * stride; report the group's first row.
            stride = rows // support
            return ranks * stride
        return ranks

    def hot_mass(self, rows: int, k: int) -> float:
        support = min(rows, _SUPPORT_CAP)
        return _zipf_partial_mass(support, self.alpha, 0, min(k, support))


def hot_keys(distribution: IndexDistribution, rows: int, k: int) -> np.ndarray:
    """Module-level convenience wrapper over ``distribution.hot_keys``."""
    return distribution.hot_keys(rows, k)


def hot_mass(distribution: IndexDistribution, rows: int, k: int) -> float:
    """Module-level convenience wrapper over ``distribution.hot_mass``."""
    return distribution.hot_mass(rows, k)
