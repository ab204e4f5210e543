"""Experiment run records: the durable unit of the run ledger.

A :class:`RunRecord` freezes one measurement — a profiling session, a
speedup-sweep cell, a scheduler run, or a resilience scenario — into a
schema-versioned, byte-stable JSON document:

* a :class:`ConfigFingerprint` (model, platform, batch, seed, the
  structural graph-signature digest, package version) saying exactly
  *what* was measured;
* end-to-end scalars (latency, throughput, data-communication split,
  PMU-derived MPKIs) — the systems level;
* the per-operator time breakdown — the algorithms level (Fig 6);
* the TopDown pipeline-slot stack — the microarchitecture level (Fig 8);
* latency / batch-occupancy distributions as lossless
  :class:`~repro.telemetry.StreamingHistogram` states, so percentiles
  are recomputable;
* optionally the full :class:`~repro.telemetry.MetricsRegistry`
  snapshot.

Serialization is canonical (sorted keys, fixed separators) and the
metrics snapshot ordering is deterministic, so re-measuring the same
configuration in a fresh process yields byte-identical records —
the property the committed ``baselines/`` regression gate rests on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Union

from repro import telemetry
from repro.telemetry import StreamingHistogram

__all__ = [
    "SCHEMA_VERSION",
    "SchemaVersionError",
    "ConfigFingerprint",
    "RunRecord",
    "fingerprint_for",
    "record_profile",
    "record_schedule",
    "record_run",
    "record_sweep",
]

#: Bump when the record layout changes incompatibly; readers refuse
#: records from a different version with a clear error.
#: v2: optional compact windowed time-series section (``timeseries``).
#: v3: optional critical-path ``attribution`` section (flat float map
#: of per-component latency attribution from ``repro explain``).
SCHEMA_VERSION = 3

#: Histogram names a record may carry.
LATENCY_HISTOGRAM = "query_latency_s"
OCCUPANCY_HISTOGRAM = "batch_occupancy"


class SchemaVersionError(ValueError):
    """A record's schema version does not match this reader."""


@dataclass(frozen=True)
class ConfigFingerprint:
    """What exactly was measured — the join key of the ledger.

    ``graph_signature`` is the stable digest of the model's structural
    signature (see :func:`repro.runtime.signature_digest`): two
    fingerprints with equal digests measured interchangeable graphs, so
    a latency delta between them is a *performance* change, not a model
    change.
    """

    model: str
    platform: str
    batch_size: int
    seed: int
    graph_signature: str
    version: str

    @property
    def key(self) -> str:
        """Configuration identity used to match candidates to baselines."""
        return f"{self.model}|{self.platform}|b{self.batch_size}"

    @property
    def slug(self) -> str:
        """Filesystem-safe name for per-record files."""
        return (
            f"{self.model}_{self.platform}_b{self.batch_size}".replace(" ", "_")
            .replace("/", "-")
            .lower()
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "model": self.model,
            "platform": self.platform,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "graph_signature": self.graph_signature,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ConfigFingerprint":
        return cls(
            model=str(data["model"]),
            platform=str(data["platform"]),
            batch_size=int(data["batch_size"]),
            seed=int(data["seed"]),
            graph_signature=str(data["graph_signature"]),
            version=str(data["version"]),
        )


@dataclass
class RunRecord:
    """One persisted measurement (see module docstring for the layout)."""

    fingerprint: ConfigFingerprint
    kind: str  # "profile" | "serve" | "resilience"
    schema_version: int = SCHEMA_VERSION
    created_at: Optional[float] = None
    scalars: Dict[str, float] = field(default_factory=dict)
    op_seconds: Dict[str, float] = field(default_factory=dict)
    topdown: Optional[Dict[str, float]] = None
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    metrics: List[Dict[str, Any]] = field(default_factory=list)
    #: Optional compact windowed telemetry
    #: (:meth:`repro.telemetry.TimeSeries.compact_state`): per-window
    #: counters/gauges in full, histograms as [count, sum, p50, p95,
    #: p99]. Rehydrate with :meth:`timeseries_summary`.
    timeseries: Optional[Dict[str, Any]] = None
    #: Optional critical-path attribution
    #: (:meth:`repro.explain.Explanation.attribution_section`): a flat
    #: float map of mean/p99 per-component latency seconds, so ``repro
    #: diff`` reports attribution shifts alongside latency shifts.
    attribution: Optional[Dict[str, float]] = None

    # -- distribution access -------------------------------------------------

    def histogram(self, name: str = LATENCY_HISTOGRAM) -> StreamingHistogram:
        """Deserialize one of the record's stored distributions."""
        if name not in self.histograms:
            raise KeyError(
                f"record {self.fingerprint.key} carries no {name!r} "
                f"histogram (has: {sorted(self.histograms) or 'none'})"
            )
        return StreamingHistogram.from_state(self.histograms[name])

    def percentile(self, p: float, name: str = LATENCY_HISTOGRAM) -> float:
        """Latency percentile recomputed from stored histogram state."""
        return self.histogram(name).quantile(p)

    def has_latency(self) -> bool:
        state = self.histograms.get(LATENCY_HISTOGRAM)
        return bool(state) and int(state.get("count", 0)) > 0

    def has_timeseries(self) -> bool:
        return bool(self.timeseries)

    def timeseries_summary(self):
        """The stored windowed telemetry as a
        :class:`~repro.telemetry.TimeSeriesSummary` view."""
        from repro.telemetry import TimeSeriesSummary

        if not self.timeseries:
            raise KeyError(
                f"record {self.fingerprint.key} carries no time-series "
                "section (recorded without windowed telemetry)"
            )
        return TimeSeriesSummary.from_compact_state(self.timeseries)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "created_at": self.created_at,
            "fingerprint": self.fingerprint.to_dict(),
            "scalars": {k: self.scalars[k] for k in sorted(self.scalars)},
            "op_seconds": {
                k: self.op_seconds[k] for k in sorted(self.op_seconds)
            },
            "topdown": (
                {k: self.topdown[k] for k in sorted(self.topdown)}
                if self.topdown is not None
                else None
            ),
            "histograms": {
                k: self.histograms[k] for k in sorted(self.histograms)
            },
            "metrics": self.metrics,
            "timeseries": self.timeseries,
            "attribution": (
                {k: self.attribution[k] for k in sorted(self.attribution)}
                if self.attribution is not None
                else None
            ),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON: sorted keys, fixed separators, no NaN."""
        return json.dumps(
            self.to_dict(),
            sort_keys=True,
            indent=indent,
            separators=(",", ": ") if indent else (",", ":"),
            allow_nan=False,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"run record has schema version {version!r} but this build "
                f"reads version {SCHEMA_VERSION}; re-record it (repro "
                f"record) or diff with a matching package version"
            )
        topdown = data.get("topdown")
        return cls(
            fingerprint=ConfigFingerprint.from_dict(data["fingerprint"]),
            kind=str(data.get("kind", "profile")),
            schema_version=int(version),
            created_at=data.get("created_at"),
            scalars={k: float(v) for k, v in data.get("scalars", {}).items()},
            op_seconds={
                k: float(v) for k, v in data.get("op_seconds", {}).items()
            },
            topdown=(
                {k: float(v) for k, v in topdown.items()}
                if topdown is not None
                else None
            ),
            histograms=dict(data.get("histograms", {})),
            metrics=list(data.get("metrics", [])),
            timeseries=data.get("timeseries"),
            attribution=(
                {k: float(v) for k, v in data["attribution"].items()}
                if data.get("attribution") is not None
                else None
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"run record is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("run record JSON must be an object")
        return cls.from_dict(data)


# -- builders ----------------------------------------------------------------


def platform_key(platform: Union[str, Any]) -> str:
    """Canonical registry key (``broadwell``, ``t4``, …) for a platform.

    Fingerprints store this key — not the marketing name — so records
    match regardless of which alias (``bdw``, ``clx``) produced them.
    Specs not in the registry keep their own name.
    """
    from repro.hw import PLATFORMS, platform_by_name

    spec = platform_by_name(platform) if isinstance(platform, str) else platform
    for key in sorted(PLATFORMS):
        if PLATFORMS[key] is spec or PLATFORMS[key] == spec:
            return key
    return str(getattr(spec, "name", spec)).lower().replace(" ", "_")


def fingerprint_for(
    model: Union[str, Any],
    platform: Union[str, Any],
    batch_size: int,
    seed: int = 2020,
) -> ConfigFingerprint:
    """Fingerprint one configuration (model by name or instance)."""
    import repro
    from repro.models import build_model
    from repro.runtime import signature_digest

    if isinstance(model, str):
        model = build_model(model)
    return ConfigFingerprint(
        model=model.name,
        platform=platform_key(platform),
        batch_size=int(batch_size),
        seed=int(seed),
        graph_signature=signature_digest(model),
        version=repro.__version__,
    )


def record_profile(
    model: Union[str, Any],
    platform: Union[str, Any],
    batch_size: int,
    seed: int = 2020,
    timestamp: Optional[float] = None,
    with_metrics: bool = True,
) -> RunRecord:
    """Profile one configuration and freeze the full cross-stack result.

    Runs the characterization under a fresh telemetry capture so the
    record also carries the deterministic metrics snapshot (PMU
    counters, per-kind op-time histograms). Pass ``timestamp=None``
    (the default) for byte-stable records — baselines are produced this
    way; callers who want wall-clock provenance pass their own stamp.
    """
    from repro.core import characterize
    from repro.models import build_model
    from repro.runtime import clear_graph_cache
    from repro.runtime.specmode import clear_spec_caches

    if isinstance(model, str):
        model = build_model(model)
    fingerprint = fingerprint_for(model, platform, batch_size, seed)
    if with_metrics:
        # Records must not depend on process history: a warm graph or
        # workload-table cache would flip hit/miss counters (and skip
        # graph verification) in the captured snapshot, breaking
        # byte-stable baselines.
        clear_graph_cache()
        clear_spec_caches()
        with telemetry.capture() as (_, registry):
            report = characterize(model, platform, batch_size)
        metrics = registry.snapshot()
    else:
        report = characterize(model, platform, batch_size)
        metrics = []
    profile = report.profile
    return RunRecord(
        fingerprint=fingerprint,
        kind="profile",
        created_at=timestamp,
        scalars=profile.summary_scalars(),
        op_seconds=dict(profile.op_time_by_kind),
        topdown=(
            report.microarch.topdown.as_dict()
            if report.microarch is not None
            else None
        ),
        metrics=metrics,
    )


def record_schedule(
    result,
    fingerprint: ConfigFingerprint,
    max_batch: int,
    kind: str = "serve",
    timestamp: Optional[float] = None,
    base: Optional[RunRecord] = None,
    timeseries=None,
    attribution: Optional[Dict[str, float]] = None,
) -> RunRecord:
    """Freeze a scheduler / resilience run into a record.

    ``result`` is a :class:`~repro.runtime.ScheduleResult` (or the
    resilient subclass, whose policy/fault counters are folded into the
    scalars). When ``base`` is given (a profile record of the same
    fingerprint), its operator breakdown, TopDown stack, and scalars are
    carried over so one record spans the whole stack. ``timeseries``
    (a :class:`~repro.telemetry.TimeSeries` or an already-compact state
    dict) embeds the run's windowed telemetry; ``attribution`` (a flat
    float map from
    :meth:`repro.explain.Explanation.attribution_section`) embeds the
    run's critical-path decomposition.
    """
    scalars: Dict[str, float] = dict(base.scalars) if base is not None else {}
    op_seconds = dict(base.op_seconds) if base is not None else {}
    topdown = dict(base.topdown) if base is not None and base.topdown else None
    metrics = list(base.metrics) if base is not None else []

    scalars.update(
        queries=float(result.queries),
        duration_s=result.duration_s,
        sim_throughput_qps=result.throughput_qps,
        mean_batch_size=result.mean_batch_size,
    )
    if hasattr(result, "rate_scalars"):
        scalars.update(result.rate_scalars())
    latency_hist = result.latency_histogram()
    if latency_hist.count:
        for p in (50.0, 95.0, 99.0):
            scalars[f"p{p:g}_latency_s"] = latency_hist.quantile(p)
    ts_state = None
    if timeseries is not None:
        ts_state = (
            timeseries.compact_state()
            if hasattr(timeseries, "compact_state")
            else dict(timeseries)
        )
    return RunRecord(
        fingerprint=fingerprint,
        kind=kind,
        created_at=timestamp,
        scalars=scalars,
        op_seconds=op_seconds,
        topdown=topdown,
        histograms={
            LATENCY_HISTOGRAM: latency_hist.to_state(),
            OCCUPANCY_HISTOGRAM: result.occupancy_histogram(
                max_batch
            ).to_state(),
        },
        metrics=metrics,
        timeseries=ts_state,
        attribution=attribution,
    )


def record_run(
    model: Union[str, Any],
    platform: Union[str, Any],
    batch_size: int,
    seed: int = 2020,
    queries: int = 0,
    qps: Optional[float] = None,
    timestamp: Optional[float] = None,
    with_metrics: bool = True,
) -> RunRecord:
    """One-call ledger entry point: profile, optionally serve, record.

    With ``queries == 0`` this is :func:`record_profile`. Otherwise the
    plain run of :func:`repro.monitor.scenario.plain_scheduler`
    (service-time model calibrated from targeted profiles, seeded
    Poisson arrivals — fully deterministic) adds latency percentiles
    and the batch-occupancy distribution on top of the profile stack.
    """
    from repro.models import build_model
    from repro.monitor.scenario import plain_scheduler

    if isinstance(model, str):
        model = build_model(model)
    base = record_profile(
        model, platform, batch_size, seed,
        timestamp=timestamp, with_metrics=with_metrics,
    )
    if queries == 0:
        return base
    scheduler, arrival_qps = plain_scheduler(
        model, platform, batch_size, queries=queries, qps=qps, seed=seed
    )
    result = scheduler.run(arrival_qps, num_queries=queries)
    record = record_schedule(
        result, base.fingerprint, batch_size,
        kind="serve", timestamp=timestamp, base=base,
    )
    record.scalars["arrival_qps"] = arrival_qps
    return record


def record_sweep(
    sweep,
    seed: int = 2020,
    timestamp: Optional[float] = None,
) -> List[RunRecord]:
    """One profile record per (model, platform, batch) cell of a sweep.

    Sweep profiles don't carry a metrics capture (the sweep may have
    run with telemetry off), so these records hold the
    scalar/operator stack only — still enough for ``repro diff``.
    """
    records: List[RunRecord] = []
    for model in sweep.model_names:
        for platform in sweep.platform_names:
            for batch in sweep.batch_sizes:
                profile = sweep.profile(model, platform, batch)
                records.append(
                    RunRecord(
                        fingerprint=fingerprint_for(
                            model, platform, batch, seed
                        ),
                        kind="profile",
                        created_at=timestamp,
                        scalars=profile.summary_scalars(),
                        op_seconds=dict(profile.op_time_by_kind),
                    )
                )
    return records
