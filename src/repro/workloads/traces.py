"""Production-like load traces (diurnal pattern + noise).

DeepRecSys-style capacity studies replay a day of traffic rather than
a constant rate: load swings sinusoidally between a night-time trough
and an evening peak, with lognormal noise. ``DiurnalTrace`` generates
the per-interval arrival rates. Replaying them through a serving engine
waits for engines that run over a given arrival array: one continuous
run keeps the peak interval's backlog, which a run per interval, each
starting from an empty queue, would drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = ["DiurnalTrace", "TraceInterval"]


@dataclass(frozen=True)
class TraceInterval:
    hour: float
    arrival_qps: float


@dataclass(frozen=True)
class DiurnalTrace:
    """A day of load: sinusoid between trough and peak, plus noise.

    ``peak_hour`` positions the maximum (19:00 default — evening
    traffic); ``noise_sigma`` is the lognormal sigma of multiplicative
    per-interval jitter.
    """

    trough_qps: float = 2_000.0
    peak_qps: float = 20_000.0
    peak_hour: float = 19.0
    intervals_per_day: int = 24
    noise_sigma: float = 0.08
    seed: int = 2020

    def __post_init__(self) -> None:
        if self.trough_qps <= 0 or self.peak_qps < self.trough_qps:
            raise ValueError("need 0 < trough <= peak")
        if self.intervals_per_day < 1:
            raise ValueError("need at least one interval")

    def intervals(self) -> List[TraceInterval]:
        rng = np.random.default_rng(self.seed)
        mid = (self.peak_qps + self.trough_qps) / 2.0
        amplitude = (self.peak_qps - self.trough_qps) / 2.0
        out = []
        for i in range(self.intervals_per_day):
            hour = 24.0 * i / self.intervals_per_day
            phase = 2.0 * np.pi * (hour - self.peak_hour) / 24.0
            rate = mid + amplitude * np.cos(phase)
            rate *= float(np.exp(rng.normal(0.0, self.noise_sigma)))
            out.append(TraceInterval(hour=hour, arrival_qps=max(rate, 1.0)))
        return out

    @property
    def daily_queries(self) -> float:
        seconds_per_interval = 86_400.0 / self.intervals_per_day
        return sum(i.arrival_qps for i in self.intervals()) * seconds_per_interval
