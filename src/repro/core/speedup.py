"""Systems-platform evaluation (paper Section IV, Figs 3-5).

Sweeps (model x batch size x platform), computes speedups over the
Broadwell baseline, the optimal-platform grid, and the GPU
data-communication overhead decomposition.

The sweep is the hot path of the whole reproduction (every figure
starts from it), so :meth:`SpeedupStudy.run` evaluates the whole grid
through the workload-table path (:mod:`repro.runtime.specmode`): one
vectorized evaluation per platform over every (model, batch) cell.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.hw import PLATFORM_ORDER
from repro.models import RecommendationModel, build_all_models
from repro.runtime import InferenceProfile, specmode
from repro.workloads import paper_batch_sizes

__all__ = [
    "SweepResult",
    "SpeedupStudy",
    "OptimalCell",
]

BASELINE_PLATFORM = "broadwell"


@dataclass
class SweepResult:
    """All profiles for one sweep, indexed by (model, platform, batch)."""

    profiles: Dict[Tuple[str, str, int], InferenceProfile]
    model_names: List[str]
    platform_names: List[str]
    batch_sizes: List[int]

    def profile(self, model: str, platform: str, batch: int) -> InferenceProfile:
        return self.profiles[(model, platform, batch)]

    def total_seconds(self, model: str, platform: str, batch: int) -> float:
        return self.profile(model, platform, batch).total_seconds

    def speedup(self, model: str, platform: str, batch: int) -> float:
        """End-to-end speedup over the Broadwell baseline (Fig 3)."""
        base = self.total_seconds(model, BASELINE_PLATFORM, batch)
        return base / self.total_seconds(model, platform, batch)

    def speedup_series(self, model: str, platform: str) -> List[Tuple[int, float]]:
        return [(b, self.speedup(model, platform, b)) for b in self.batch_sizes]

    def data_comm_fraction(self, model: str, platform: str, batch: int) -> float:
        """Share of end-to-end time in data communication (Fig 4)."""
        return self.profile(model, platform, batch).data_comm_fraction


@dataclass(frozen=True)
class OptimalCell:
    """One cell of the Fig 5 optimal-platform grid."""

    model: str
    batch_size: int
    platform: str
    speedup: float


class SpeedupStudy:
    """Runs and caches the full heterogeneous-platform sweep."""

    def __init__(
        self,
        models: Optional[Mapping[str, RecommendationModel]] = None,
        platform_names: Optional[Sequence[str]] = None,
        batch_sizes: Optional[Sequence[int]] = None,
    ) -> None:
        self.models = dict(models) if models is not None else build_all_models()
        self.platform_names = (
            list(platform_names) if platform_names is not None else list(PLATFORM_ORDER)
        )
        if BASELINE_PLATFORM not in self.platform_names:
            raise ValueError(f"sweep must include the {BASELINE_PLATFORM} baseline")
        self.batch_sizes = (
            list(batch_sizes) if batch_sizes is not None else paper_batch_sizes()
        )
        if not self.batch_sizes:
            raise ValueError("batch_sizes must name at least one batch size")
        for b in self.batch_sizes:
            if isinstance(b, bool) or not isinstance(b, numbers.Integral):
                raise TypeError(f"batch_sizes must hold integers, got {b!r}")
            if b < 1:
                raise ValueError(f"batch_sizes must be >= 1, got {b}")

    def run(self) -> SweepResult:
        """Profile every (model, platform, batch) cell.

        All (model, batch) workload tables are stacked once and each
        platform is one vectorized evaluation over every cell; the
        profiles equal per-cell :meth:`InferenceSession.profile` calls
        bit for bit. Profiles are keyed in the canonical
        ``(model, platform, batch)`` order.
        """
        return SweepResult(
            profiles=specmode.profile_spec_sweep(
                self.models, self.platform_names, self.batch_sizes
            ),
            model_names=list(self.models),
            platform_names=list(self.platform_names),
            batch_sizes=list(self.batch_sizes),
        )

    @staticmethod
    def optimal_platform_grid(sweep: SweepResult) -> List[OptimalCell]:
        """Fig 5: best platform (and its speedup) per (model, batch)."""
        cells = []
        for model in sweep.model_names:
            for batch in sweep.batch_sizes:
                best = max(
                    sweep.platform_names,
                    key=lambda p: sweep.speedup(model, p, batch),
                )
                cells.append(
                    OptimalCell(
                        model=model,
                        batch_size=batch,
                        platform=best,
                        speedup=sweep.speedup(model, best, batch),
                    )
                )
        return cells

