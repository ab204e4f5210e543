"""SLO burn-rate monitoring over windowed latency telemetry.

End-of-run SLO evaluation (``repro check``) answers "did the run stay
inside its bounds overall?" — useless for a ten-second fault window in
a five-minute run. Burn-rate monitoring (the multiwindow policy from
the Google SRE workbook) answers the operational question instead:
*how fast is this run consuming its error budget, right now?*

For a latency rule ``p99_latency_s <= max`` with error budget ``b``
(the allowed fraction of queries violating the bound — by default
``1 - q/100`` for a pXX rule, i.e. exactly the slack the percentile
definition leaves), each window ``w`` has an error fraction ``e_w``:
the fraction of that window's queries slower than ``max``. The burn
rate over a lookback of ``k`` windows is ``mean(e) / b`` — burn 1
means the budget is being consumed exactly at the sustainable pace,
burn 14 means the whole budget would be gone in 1/14th of the period.

Two lookbacks fire independently:

* **fast burn** — short lookback, high threshold (default 14.4x): a
  sharp regression, e.g. a GPU throttle window, pages immediately;
* **slow burn** — long lookback, low threshold (default 6x): a
  sustained simmer that a short window would dismiss as noise.

Error fractions come from two sources, transparently: a live
:class:`~repro.telemetry.timeseries.TimeSeries` exposes per-window
:class:`~repro.telemetry.histogram.StreamingHistogram`\\ s, so
``fraction_above(max)`` is exact; a compact summary rehydrated from a
ledger record keeps only per-window p50/p95/p99, so the fraction is a
*lower bound* stepped through the stored percentiles (p50 over the
bound proves >= 50 % violating; else p95 proves >= 5 %; else p99
proves >= 1 %). Lower-bounding keeps persisted-record alerts honest:
they can only under-fire relative to live monitoring, never invent
violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.ledger.slo import SloRule
from repro.monitor.analysis import Alert, _fault_correlated, _group_windows
from repro.telemetry.timeseries import TimeSeries, TimeSeriesSummary

__all__ = [
    "BurnRateConfig",
    "window_error_fractions",
    "evaluate_burn_rates",
    "LATENCY_RULE_PERCENTILES",
]

#: Latency-distribution rule metrics the windowed monitor understands,
#: mapped to their percentile (also the source of the default budget).
LATENCY_RULE_PERCENTILES: Dict[str, float] = {
    "p50_latency_s": 50.0,
    "p95_latency_s": 95.0,
    "p99_latency_s": 99.0,
}


@dataclass(frozen=True)
class BurnRateConfig:
    """Fast/slow multiwindow burn-rate policy.

    Lookbacks are window *counts*, so the absolute horizon scales with
    the chosen window size; the defaults assume O(10+) windows per run.
    """

    fast_lookback: int = 3
    fast_threshold: float = 14.4
    slow_lookback: int = 12
    slow_threshold: float = 6.0
    track: str = "latency_s"

    def __post_init__(self) -> None:
        if self.fast_lookback < 1 or self.slow_lookback < 1:
            raise ValueError("burn-rate lookbacks must be >= 1 window")
        if self.fast_threshold <= 0 or self.slow_threshold <= 0:
            raise ValueError("burn-rate thresholds must be positive")


def _rule_budget(rule: SloRule) -> Optional[float]:
    if rule.budget is not None:
        return rule.budget
    q = LATENCY_RULE_PERCENTILES.get(rule.metric)
    if q is None:
        return None
    return 1.0 - q / 100.0


def window_error_fractions(
    source: Union[TimeSeries, TimeSeriesSummary],
    rule: SloRule,
    track: str = "latency_s",
) -> Dict[int, float]:
    """Per-window fraction of queries violating ``rule.max``.

    Exact from a live :class:`TimeSeries`; a stepped lower bound from a
    summary (see module docstring). Windows with no latency samples
    contribute 0.0 — an idle window burns no budget.
    """
    if rule.max is None:
        raise ValueError(f"rule {rule.name!r} has no `max`; nothing to burn")
    fractions: Dict[int, float] = {}
    if isinstance(source, TimeSeries):
        for index in source.window_indices():
            hist = source.window_histogram(track, index)
            fractions[index] = (
                hist.fraction_above(rule.max) if hist is not None else 0.0
            )
        return fractions
    for index in source.window_indices():
        cell = source.histogram_summary(track, index)
        if cell is None:
            fractions[index] = 0.0
        elif cell.get("p50", 0.0) > rule.max:
            fractions[index] = 0.50
        elif cell.get("p95", 0.0) > rule.max:
            fractions[index] = 0.05
        elif cell.get("p99", 0.0) > rule.max:
            fractions[index] = 0.01
        else:
            fractions[index] = 0.0
    return fractions


def _rolling_burn(
    indices: Sequence[int],
    fractions: Dict[int, float],
    lookback: int,
    budget: float,
) -> Dict[int, float]:
    """Trailing-mean error fraction over ``lookback`` windows / budget."""
    burns: Dict[int, float] = {}
    for pos, index in enumerate(indices):
        window = indices[max(0, pos - lookback + 1): pos + 1]
        mean = sum(fractions.get(i, 0.0) for i in window) / len(window)
        burns[index] = mean / budget
    return burns


def evaluate_burn_rates(
    source: Union[TimeSeries, TimeSeriesSummary],
    rules: Sequence[SloRule],
    config: Optional[BurnRateConfig] = None,
) -> List[Alert]:
    """Evaluate every windowed-capable latency rule's fast/slow burns.

    Rules without a ``max`` bound, or whose metric is not a latency
    percentile, are skipped — the end-of-run ``repro check`` still
    covers them. Consecutive firing windows group into one alert;
    alerts carry the rule's severity and a fault-correlation flag.
    """
    config = config or BurnRateConfig()
    summary = source.summary() if isinstance(source, TimeSeries) else source
    indices = summary.window_indices()
    if not indices:
        return []
    alerts: List[Alert] = []
    for rule in rules:
        budget = _rule_budget(rule)
        if budget is None or rule.max is None:
            continue
        fractions = window_error_fractions(source, rule, track=config.track)
        for kind, lookback, threshold in (
            ("fast_burn", config.fast_lookback, config.fast_threshold),
            ("slow_burn", config.slow_lookback, config.slow_threshold),
        ):
            burns = _rolling_burn(indices, fractions, lookback, budget)
            flagged = [i for i in indices if burns[i] >= threshold]
            for start, end in _group_windows(flagged):
                peak = max(burns[i] for i in range(start, end + 1)
                           if i in burns)
                alerts.append(
                    Alert(
                        kind=kind,
                        rule=rule.name,
                        start_window=start,
                        end_window=end,
                        start_s=summary.window_start(start),
                        end_s=summary.window_start(end) + summary.window_s,
                        value=peak,
                        threshold=threshold,
                        severity=rule.severity,
                        fault_correlated=_fault_correlated(
                            summary, start, end
                        ),
                        detail=(
                            f"{rule.metric} > {rule.max:g}s burning "
                            f"{peak:.1f}x budget {budget:g} "
                            f"(threshold {threshold:g}x over "
                            f"{lookback} windows)"
                        ),
                    )
                )
    return alerts
