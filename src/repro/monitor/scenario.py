"""Named fault scenarios and the one serving-scenario pipeline.

The scenario table is the single source of truth for what the serving
subcommands inject, and :func:`build_scenario` is the one place a named
scenario becomes a fleet, a fault plan and a policy set. The runners —
:func:`monitor_setup` (``repro monitor`` / ``explain``),
:func:`run_policy_matrix` (``repro resilience``) and ``repro shard``'s
:func:`~repro.distserve.run_shard_matrix` — are thin layers over it,
and the CLI only renders what they return, so CLI output and test pins
cannot drift apart.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.resilience import (
    CircuitBreakerPolicy,
    DegradationPolicy,
    FaultPlan,
    HedgePolicy,
    Replica,
    ResiliencePolicy,
    ResilientScheduler,
    RetryPolicy,
    SheddingPolicy,
)
from repro.runtime import BatchingPolicy
from repro.telemetry.timeseries import TimeSeries

__all__ = [
    "SCENARIOS",
    "scenario_kwargs",
    "service_model_for",
    "is_shard_scenario",
    "shard_scenario_names",
    "replica_scenario_names",
    "check_scenario_inputs",
    "plain_scheduler",
    "ScenarioSetup",
    "build_scenario",
    "MonitoredScenario",
    "run_monitored_scenario",
    "monitor_setup",
    "PolicyMatrix",
    "run_policy_matrix",
]

#: FaultPlan.synthesize kwargs per named scenario. ``slowdown`` is the
#: canonical GPU-throttle case the acceptance tests pin (one window at
#: a high multiplier -> a tail excursion confined to that window).
#: Entries carrying ``shard_faults=True`` (registered from
#: ``repro.distserve``) target simulated *shard servers* instead of
#: replicas; ``repro shard`` runs them as a placement/policy matrix and
#: ``repro monitor`` runs them with fault-correlated alerting unchanged.
SCENARIOS: Dict[str, Dict[str, Any]] = {
    "slowdown": dict(slowdown_windows=1, slowdown_multiplier=4.0),
    "crash": dict(slowdown_windows=0, crash_windows=1,
                  crash_duration_frac=0.15),
    "drops": dict(slowdown_windows=0, drop_probability=0.05),
    "stragglers": dict(slowdown_windows=0, straggler_probability=0.08),
    "pcie": dict(slowdown_windows=0, pcie_windows=1, pcie_scale=0.2),
    "mixed": dict(slowdown_windows=1, slowdown_multiplier=3.0,
                  crash_windows=1, crash_duration_frac=0.08,
                  drop_probability=0.02, straggler_probability=0.04),
}


def _register_shard_scenarios() -> None:
    from repro.distserve.scenario import default_shard_scenarios

    SCENARIOS.update(default_shard_scenarios())


_register_shard_scenarios()


def is_shard_scenario(name: str) -> bool:
    """Whether a scenario's faults target shard servers."""
    entry = SCENARIOS.get(name)
    return bool(entry and entry.get("shard_faults"))


def shard_scenario_names() -> tuple:
    return tuple(n for n in SCENARIOS if is_shard_scenario(n))


def replica_scenario_names() -> tuple:
    return tuple(n for n in SCENARIOS if not is_shard_scenario(n))


def scenario_kwargs(name: str, **overrides: Any) -> Dict[str, Any]:
    """The synthesize kwargs for one named scenario (plus overrides)."""
    try:
        base = dict(SCENARIOS[name])
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    base.update(overrides)
    return base


def service_model_for(model, platform: str, batch: int):
    """Calibrate a ServiceTimeModel from a handful of targeted profiles."""
    return _service_models([model], [platform], batch)[model.name, platform]


def _service_models(models, platforms, batch: int) -> Dict[tuple, Any]:
    """``(model name, platform) -> ServiceTimeModel`` for every pair,
    calibrated at batches 1, b/4, b and 2b by one table sweep (repeat
    calls are memo hits in :mod:`repro.runtime.specmode`)."""
    from repro.models import RecommendationModel
    from repro.runtime import ServiceTimeModel
    from repro.runtime.specmode import profile_spec_sweep

    if not all(isinstance(m, RecommendationModel) for m in models):
        raise TypeError(f"model must be a RecommendationModel, got {models}")
    _check_count("batch_size", batch)
    calibration = sorted({1, max(2, batch // 4), batch, 2 * batch})
    profiles = profile_spec_sweep(
        {m.name: m for m in models}, platforms, calibration
    )
    return {
        (m.name, p): ServiceTimeModel.from_profiles(
            [profiles[m.name, p, b] for b in calibration]
        )
        for m in models
        for p in platforms
    }


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def check_scenario_inputs(
    *, batch_size, queries, qps=None, window_s=None, deadline_s=None
) -> None:
    """Reject bad scenario inputs before any calibration, naming them.

    ``batch_size`` and ``queries`` must be positive integers; ``qps``,
    ``window_s`` and ``deadline_s`` are ``None`` (the default) or
    positive finite numbers.
    """
    _check_count("batch_size", batch_size)
    _check_count("queries", queries)
    for name, value in (
        ("qps", qps), ("window_s", window_s), ("deadline_s", deadline_s)
    ):
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"{name} must be a number, got {value!r}")
        if not (math.isfinite(value) and value > 0):
            raise ValueError(
                f"{name} must be positive and finite, got {value!r}"
            )


def plain_scheduler(
    model, platform: str, batch_size: int, *, queries: int,
    qps: Optional[float] = None, seed: int = 2020,
) -> Tuple[Any, float]:
    """``(scheduler, qps)`` for the plain run of ``repro record`` /
    ``trace`` / ``metrics``: a seeded :class:`QueryScheduler` over the
    calibrated ``model``, at ``qps`` or half the full-batch peak. The
    caller runs ``scheduler.run(qps, num_queries=queries)``."""
    from repro.runtime import QueryScheduler

    check_scenario_inputs(batch_size=batch_size, queries=queries, qps=qps)
    stm = service_model_for(model, platform, batch_size)
    if qps is None:
        qps = 0.5 * (batch_size / stm.seconds(batch_size))
    return QueryScheduler(stm, BatchingPolicy(batch_size), seed=seed), qps


@dataclass
class ScenarioSetup:
    """One named scenario, assembled: everything a run needs but sinks.

    ``plan`` is the injected plan: on the replicas, or — for shard
    scenarios — on the shard servers behind ``gather``, with the replica
    fleet healthy. ``policy`` holds the five policy parts; hedge and
    breaker are ``None`` without a fallback, degrade without a degraded
    model variant. A study's variants are ``dataclasses.replace``
    copies of one setup, each run through :meth:`scheduler`.
    """

    model: str
    platform: str
    scenario: str
    seed: int
    batch_size: int
    batch_timeout_s: float
    queries: int
    qps: float
    deadline_s: float
    window_s: float
    horizon_s: float
    plan: FaultPlan
    fallback: Optional[str]
    replicas: List[Replica]
    policy: ResiliencePolicy
    gather: Any  # ShardGatherModel, or None

    def fault_windows(self):
        """All injected (start_s, end_s, kind) windows, sorted by start."""
        return sorted(
            (w.start_s, w.end_s, f"{name}.{kind}")
            for name, faults in self.plan.servers.items()
            for kind, w in faults.windows()
        )

    def policy_with(self, *parts: str) -> ResiliencePolicy:
        """The scenario's policy restricted to ``parts`` (none: off)."""
        return ResiliencePolicy(**{p: getattr(self.policy, p) for p in parts})

    def scheduler(
        self, policy: ResiliencePolicy, *, faults: bool = True, **sinks: Any
    ) -> ResilientScheduler:
        """A fresh engine over this setup; ``faults=False`` is the
        healthy baseline (the primary alone, nothing injected)."""
        return ResilientScheduler(
            self.replicas if faults else self.replicas[:1],
            BatchingPolicy(self.batch_size, self.batch_timeout_s),
            resilience=policy,
            fault_plan=self.plan if faults and self.gather is None else None,
            seed=self.seed,
            gather=self.gather if faults else None,
            **sinks,
        )


def build_scenario(
    model_name: str,
    platform: str,
    scenario: str,
    *,
    batch_size: int = 64,
    queries: int = 2000,
    qps: Optional[float] = None,
    seed: int = 2020,
    window_s: Optional[float] = None,
    fallback: Optional[str] = None,
    scenario_overrides: Optional[Dict[str, Any]] = None,
    deadline_s: Optional[float] = None,
    load: float = 0.4,
) -> ScenarioSetup:
    """Assemble one named scenario.

    Calibrates the primary, the ``fallback`` platform (``None`` or
    ``"none"``: no fallback) and, for DLRM, the degraded variant, in one
    table sweep. Defaults: ``qps`` is ``load`` × the primary's peak
    rate, the deadline 10× the full-batch service time (at least 20 ms),
    the telemetry window a 24th of the horizon, and the batch timeout
    :class:`BatchingPolicy`'s.
    """
    from repro.core import SlaBudget
    from repro.models import build_model
    from repro.models.dlrm import DLRM
    from repro.models.variants import degraded_variant

    check_scenario_inputs(
        batch_size=batch_size, queries=queries, qps=qps,
        window_s=window_s, deadline_s=deadline_s,
    )
    synth_kwargs = scenario_kwargs(scenario, **(scenario_overrides or {}))
    if fallback is not None and fallback.lower() == "none":
        fallback = None

    model = build_model(model_name)
    # The primary, then (DLRM only) its degraded variant.
    variants = [model] + (
        [degraded_variant(model)] if isinstance(model, DLRM) else []
    )
    standby = [] if fallback is None else [fallback]
    stms = _service_models(variants, [platform] + standby, batch_size)
    replicas = [
        Replica(platform, *(stms[v.name, platform] for v in variants))
    ] + [Replica(name, stms[model.name, name]) for name in standby]

    service_s = replicas[0].service_model.seconds(batch_size)
    if qps is None:
        qps = load * (batch_size / service_s)
    if deadline_s is None:
        deadline_s = max(10.0 * service_s, 0.02)
    budget = SlaBudget(deadline_s, queue_fraction=0.5)
    horizon = queries / qps
    if window_s is None:
        window_s = horizon / 24

    gather = None
    if synth_kwargs.get("shard_faults"):
        from repro.distserve import (
            GatherPolicy,
            LocalityAwarePlacement,
            ShardGatherModel,
            hottest_shard_plan,
            shard_layout,
            split_shard_kwargs,
        )

        _, setup, fault_kwargs = split_shard_kwargs(synth_kwargs)
        hot_k = int(setup.get("hot_k", 1024))
        layout = shard_layout(
            model, setup, LocalityAwarePlacement(hot_k=hot_k)
        )
        plan = hottest_shard_plan(layout, seed, horizon, fault_kwargs)
        gather = ShardGatherModel(
            layout, policy=GatherPolicy.none(), fault_plan=plan, seed=seed
        )
    else:
        names = [r.name for r in replicas]
        plan = FaultPlan.synthesize(seed, names, horizon, **synth_kwargs)

    policy = ResiliencePolicy(
        retry=RetryPolicy(deadline_s=deadline_s, max_retries=2),
        hedge=(
            HedgePolicy(delay_s=0.5 * budget.queue_budget_s)
            if standby else None
        ),
        breaker=(
            CircuitBreakerPolicy(failure_threshold=2, cooldown_s=deadline_s)
            if standby else None
        ),
        shed=SheddingPolicy(deadline_s=deadline_s),
        degrade=(
            DegradationPolicy(queue_budget_s=budget.queue_budget_s)
            if len(variants) > 1 else None
        ),
    )
    return ScenarioSetup(
        model=model_name, platform=platform, scenario=scenario, seed=seed,
        batch_size=batch_size, batch_timeout_s=BatchingPolicy.batch_timeout_s,
        queries=queries, qps=qps,
        deadline_s=deadline_s, window_s=window_s, horizon_s=horizon,
        plan=plan, fallback=fallback, replicas=replicas, policy=policy,
        gather=gather,
    )


@dataclass
class MonitoredScenario(ScenarioSetup):
    """One monitored run: its setup plus the result and telemetry."""

    result: Any  # ResilientScheduleResult
    timeseries: TimeSeries


def run_monitored_scenario(
    model_name: str,
    platform: str,
    scenario: str,
    *,
    batch_size: int = 64,
    queries: int = 2000,
    qps: Optional[float] = None,
    seed: int = 2020,
    window_s: Optional[float] = None,
    fallback: Optional[str] = None,
    scenario_overrides: Optional[Dict[str, Any]] = None,
    querytrace: Any = None,
) -> MonitoredScenario:
    """Run one fault scenario with windowed telemetry attached: the
    :func:`build_scenario` setup, run by :func:`monitor_setup`."""
    return monitor_setup(
        build_scenario(
            model_name, platform, scenario, batch_size=batch_size,
            queries=queries, qps=qps, seed=seed, window_s=window_s,
            fallback=fallback, scenario_overrides=scenario_overrides,
        ),
        querytrace,
    )


def monitor_setup(
    setup: ScenarioSetup, querytrace: Any = None
) -> MonitoredScenario:
    """Run a built scenario under its full policy set (the ``repro
    resilience`` "faults + all" row), instrumented with a
    :class:`TimeSeries` and, when given, ``querytrace``. A caller that
    traces the run builds the setup first, so the calibration's
    wall-clock profiles stay out of the trace."""
    timeseries = TimeSeries(window_s=setup.window_s)
    result = setup.scheduler(
        setup.policy, timeseries=timeseries, querytrace=querytrace
    ).run(setup.qps, num_queries=setup.queries)
    return MonitoredScenario(
        **vars(setup), result=result, timeseries=timeseries
    )


@dataclass
class PolicyMatrix:
    """The ``repro resilience`` bundle: one result per row, in order."""

    setup: ScenarioSetup
    rows: Dict[str, Any]  # label -> ResilientScheduleResult


def run_policy_matrix(
    model_name: str,
    platform: str,
    scenario: str = "slowdown",
    *,
    batch_size: int = 64,
    queries: int = 800,
    qps: Optional[float] = None,
    seed: int = 2020,
    fallback: Optional[str] = "broadwell",
    deadline_s: Optional[float] = None,
) -> PolicyMatrix:
    """Run one replica scenario with each resilience policy on/off.

    Rows: the healthy primary alone, the faults with no policy, retry,
    hedge and failover (with a fallback), degrade/shed (with a degraded
    variant), and every part at once — the monitored run's policy.
    """
    if is_shard_scenario(scenario):
        raise ValueError(
            f"scenario {scenario!r} faults shard servers; the policy "
            "matrix needs a replica scenario"
        )
    setup = build_scenario(
        model_name, platform, scenario, batch_size=batch_size,
        queries=queries, qps=qps, seed=seed, fallback=fallback,
        deadline_s=deadline_s,
    )
    cases = [("no faults", ()), ("faults, no policy", ()),
             ("faults + retry", ("retry",))]
    if setup.fallback is not None:
        cases.append(("faults + hedge", ("hedge",)))
        cases.append(("faults + failover", ("retry", "breaker")))
    if setup.policy.degrade is not None:
        cases.append(("faults + degrade/shed", ("shed", "degrade")))
    rows = {
        label: setup.scheduler(
            setup.policy_with(*parts), faults=label != "no faults"
        ).run(setup.qps, num_queries=queries)
        for label, parts in cases
    }
    rows["faults + all"] = setup.scheduler(setup.policy).run(
        setup.qps, num_queries=queries
    )
    return PolicyMatrix(setup=setup, rows=rows)
