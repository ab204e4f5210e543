"""Declarative registry of cross-implementation contracts.

The stack pins several pairs of independent implementations to the same
answer: scalar vs vectorized cost evaluators behind spec-mode, raw vs
optimized graph numerics, the plain vs gather-augmented scheduler path,
framework lowerings vs their cost totals, run-ledger records vs their
re-recorded twins.
Each invariant here is a named, self-describing oracle: a hypothesis
strategy producing a random *JSON-serializable* example dict, and a
``check`` that raises :class:`ContractViolation` when the invariant
breaks on that example.

Examples are plain dicts so the fuzz driver (:mod:`repro.analysis.fuzz`)
can digest them for determinism checks and serialize shrunk failures to
the ``.fuzz/`` corpus without custom encoders; each ``check``
reconstructs real models/plans/policies from the dict.

This module imports :mod:`hypothesis` — a dev/test dependency — so the
package ``__init__`` deliberately does not import it eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Tuple

import numpy as np
from hypothesis import strategies as st

__all__ = [
    "CONTRACTS",
    "Contract",
    "ContractViolation",
    "contract_by_name",
]


class ContractViolation(AssertionError):
    """A contract's invariant failed on a concrete example."""


@dataclass(frozen=True)
class Contract:
    """One named invariant: example strategy + oracle.

    ``cost`` is the approximate seconds one ``check`` call takes; the
    fuzz driver divides its time budget by it to choose a deterministic
    per-contract example count (never wall-clock cutoffs, which would
    break same-seed reproducibility).
    """

    name: str
    invariant: str
    strategy: Callable[[], st.SearchStrategy]
    check: Callable[[Mapping[str, Any]], None]
    cost: float

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "invariant": self.invariant,
                "cost_s": self.cost}


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise ContractViolation(detail)


# -- shared strategies -----------------------------------------------------

_DIMS = (8, 16, 32)


def _model_specs() -> st.SearchStrategy:
    """Random small model configs across the three architecture families
    (MLP-tower DLRM, attention DIN, recurrent DIEN)."""
    dlrm = st.builds(
        lambda dense, tables, dim, lookups, hidden, top, locality: {
            "family": "dlrm", "num_dense_features": dense,
            "num_tables": tables, "embedding_dim": dim,
            "lookups_per_table": lookups, "hidden": hidden,
            "top_hidden": top, "lookup_locality": locality,
        },
        st.integers(4, 16), st.integers(2, 6), st.sampled_from(_DIMS),
        st.integers(2, 8), st.integers(8, 64), st.integers(8, 64),
        st.sampled_from((0.0, 0.15, 0.4)),
    )
    din = st.builds(
        lambda lookups, dim, tables, hidden, out: {
            "family": "din", "behavior_lookups": lookups,
            "embedding_dim": dim, "num_profile_tables": tables,
            "attention_hidden": hidden, "out_hidden": out,
        },
        st.integers(4, 40), st.sampled_from(_DIMS), st.integers(2, 6),
        st.integers(8, 36), st.integers(8, 64),
    )
    # DIEN's attention contracts the AUGRU hidden state against the
    # behavior embeddings, so hidden_dim must equal embedding_dim.
    dien = st.builds(
        lambda seq, dim, tables, out: {
            "family": "dien", "sequence_length": seq,
            "embedding_dim": dim, "hidden_dim": dim,
            "num_profile_tables": tables, "out_hidden": out,
        },
        st.integers(4, 20), st.sampled_from(_DIMS),
        st.integers(2, 4), st.integers(8, 64),
    )
    return st.one_of(dlrm, din, dien)


def _build_model(spec: Mapping[str, Any]):
    from repro.models import DIEN, DIN, DLRM, DLRMConfig, ModelInfo

    family = spec["family"]
    if family == "dlrm":
        dim = spec["embedding_dim"]
        config = DLRMConfig(
            name="fuzz_dlrm",
            num_dense_features=spec["num_dense_features"],
            num_tables=spec["num_tables"],
            rows_per_table=4096,
            embedding_dim=dim,
            lookups_per_table=spec["lookups_per_table"],
            bottom_mlp=(spec["hidden"], dim),
            top_mlp=(spec["top_hidden"], 1),
            lookup_locality=spec["lookup_locality"],
        )
        info = ModelInfo(
            "fuzz_dlrm", "Fuzz-DLRM", "synthetic", "none",
            "differential fuzzing", "randomly configured MLP-tower DLRM",
        )
        return DLRM(config, info)
    if family == "din":
        return DIN(
            behavior_lookups=spec["behavior_lookups"],
            behavior_rows=4096,
            embedding_dim=spec["embedding_dim"],
            num_profile_tables=spec["num_profile_tables"],
            profile_rows=2048,
            attention_hidden=spec["attention_hidden"],
            output_layers=(spec["out_hidden"], 1),
        )
    if family == "dien":
        return DIEN(
            sequence_length=spec["sequence_length"],
            behavior_rows=4096,
            embedding_dim=spec["embedding_dim"],
            hidden_dim=spec["hidden_dim"],
            num_profile_tables=spec["num_profile_tables"],
            profile_rows=2048,
            output_layers=(spec["out_hidden"], 1),
        )
    raise ValueError(f"unknown model family {family!r}")


# -- 1. framework lowering agreement ---------------------------------------

_LOWERED_KINDS = (
    "FC", "SparseLengthsSum", "Concat", "Sum", "Relu", "Sigmoid",
    "LocalActivation", "AUGRU", "AttentionScores", "DotInteraction",
    "FusedFC", "GroupedSparseLengthsSum", "BatchMatMul",
)


def _lowering_examples() -> st.SearchStrategy:
    seconds = st.floats(1e-9, 1.0, allow_nan=False, allow_infinity=False)
    return st.fixed_dictionaries({
        "framework": st.sampled_from(("caffe2", "tensorflow")),
        "platform_kind": st.sampled_from(("cpu", "gpu")),
        "time_by_kind": st.dictionaries(
            st.sampled_from(_LOWERED_KINDS), seconds, min_size=1, max_size=8
        ),
    })


def _check_lowering(example: Mapping[str, Any]) -> None:
    from repro.frameworks import CAFFE2, TENSORFLOW

    lowering = CAFFE2 if example["framework"] == "caffe2" else TENSORFLOW
    time_by_kind = example["time_by_kind"]
    lowered = lowering.lower(time_by_kind, example["platform_kind"])
    for kind in sorted(lowered):
        _require(
            lowered[kind] >= 0.0,
            f"lowered kind {kind!r} has negative seconds {lowered[kind]}",
        )
    total_in = sum(time_by_kind[k] for k in sorted(time_by_kind))
    total_out = sum(lowered[k] for k in sorted(lowered))
    expected = total_in * lowering.runtime_overhead
    _require(
        abs(total_out - expected) <= 1e-9 * max(expected, 1e-30),
        f"lowering changed total cost: in={total_in!r} "
        f"overhead={lowering.runtime_overhead!r} out={total_out!r}",
    )


# -- 2. optimized == raw numerics ------------------------------------------


def _optimizer_examples() -> st.SearchStrategy:
    return st.fixed_dictionaries({
        "model": _model_specs(),
        "batch": st.integers(1, 16),
        "feed_seed": st.integers(0, 2**16),
    })


def _check_optimizer(example: Mapping[str, Any]) -> None:
    from repro.graph.executor import execute
    from repro.graph.passes import optimize
    from repro.workloads.generator import QueryGenerator

    model = _build_model(example["model"])
    batch = example["batch"]
    graph = model.build_graph(batch)
    optimized = optimize(graph)
    feeds = QueryGenerator(model, seed=example["feed_seed"]).generate(batch)
    base = list(execute(graph, feeds).values())
    opt = list(execute(optimized, feeds).values())
    _require(
        len(base) == len(opt),
        f"output arity changed: {len(base)} vs {len(opt)}",
    )
    for i, (a, b) in enumerate(zip(base, opt)):
        try:
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)
        except AssertionError as exc:
            raise ContractViolation(
                f"optimized output {i} diverges from raw: {exc}"
            ) from exc


# -- 3. spec-mode profile == numeric profile -------------------------------


def _specmode_examples() -> st.SearchStrategy:
    return st.fixed_dictionaries({
        "model": _model_specs(),
        "batch": st.sampled_from((1, 4, 16, 64)),
        "platform": st.sampled_from(
            ("broadwell", "cascade_lake", "gtx1080ti", "t4")
        ),
    })


def _check_specmode(example: Mapping[str, Any]) -> None:
    from repro.gpusim import GpuModel
    from repro.hw import platform_by_name
    from repro.runtime import graph_cache
    from repro.runtime.session import InferenceSession
    from repro.uarch import CpuModel

    model = _build_model(example["model"])
    batch = example["batch"]
    platform = platform_by_name(example["platform"])
    spec = InferenceSession(model, platform).profile(batch)
    # Reference: the scalar per-node model walk over the same graph.
    graph = graph_cache.get_graph(model, batch)
    input_bytes = [d.spec.nbytes for d in model.input_descriptions(batch)]
    if platform.kind == "cpu":
        raw = CpuModel(platform).profile_graph(
            graph, input_bytes=sum(input_bytes)
        )
        data_comm = raw.data_load_seconds
    else:
        raw = GpuModel(platform).profile_graph(
            graph, input_tensor_bytes=input_bytes
        )
        data_comm = raw.data_comm_seconds
    _require(
        raw.compute_seconds == spec.compute_seconds,
        f"compute_seconds drifted: numeric={raw.compute_seconds!r} "
        f"spec={spec.compute_seconds!r}",
    )
    _require(
        data_comm == spec.data_comm_seconds,
        f"data_comm_seconds drifted: numeric={data_comm!r} "
        f"spec={spec.data_comm_seconds!r}",
    )
    numeric_by_kind = raw.time_by_kind()
    _require(
        numeric_by_kind == spec.op_time_by_kind,
        f"op_time_by_kind drifted: numeric={numeric_by_kind!r} "
        f"spec={spec.op_time_by_kind!r}",
    )


# -- 4. verifier-inferred specs == executed shapes -------------------------


def _verifier_examples() -> st.SearchStrategy:
    return st.fixed_dictionaries({
        "model": _model_specs(),
        "batch": st.integers(1, 16),
        "feed_seed": st.integers(0, 2**16),
    })


def _check_verifier(example: Mapping[str, Any]) -> None:
    from repro.analysis.verifier import inferred_output_specs
    from repro.graph.executor import execute
    from repro.workloads.generator import QueryGenerator

    model = _build_model(example["model"])
    batch = example["batch"]
    graph = model.build_graph(batch)
    specs = inferred_output_specs(graph, batch)
    feeds = QueryGenerator(model, seed=example["feed_seed"]).generate(batch)
    outputs = execute(graph, feeds)
    _require(
        sorted(specs) == sorted(outputs),
        f"output names drifted: inferred={sorted(specs)} "
        f"executed={sorted(outputs)}",
    )
    for name in sorted(specs):
        _require(
            tuple(specs[name].shape) == tuple(outputs[name].shape),
            f"output {name!r}: inferred shape {specs[name].shape} != "
            f"executed shape {outputs[name].shape}",
        )
        _require(
            specs[name].dtype == str(outputs[name].dtype),
            f"output {name!r}: inferred dtype {specs[name].dtype!r} != "
            f"executed dtype {outputs[name].dtype!s}",
        )


# -- 5. ledger records byte-stable -----------------------------------------


def _ledger_examples() -> st.SearchStrategy:
    return st.fixed_dictionaries({
        "model": st.sampled_from(("ncf", "rm1", "din")),
        "platform": st.sampled_from(("broadwell", "t4")),
        "batch": st.sampled_from((1, 16, 128)),
        "seed": st.integers(0, 2**16),
    })


def _check_ledger(example: Mapping[str, Any]) -> None:
    from repro.ledger.record import RunRecord, record_profile

    args = (example["model"], example["platform"], example["batch"])
    first = record_profile(*args, seed=example["seed"]).to_json()
    second = record_profile(*args, seed=example["seed"]).to_json()
    _require(
        first == second,
        "re-recording the same configuration changed the record bytes",
    )
    roundtrip = RunRecord.from_json(first).to_json()
    _require(
        roundtrip == first,
        "from_json/to_json round trip changed the record bytes",
    )


# -- 6. scheduler conservation under faults × policies ---------------------


def _scheduler_examples() -> st.SearchStrategy:
    policy = st.fixed_dictionaries({
        "retry": st.one_of(st.none(), st.fixed_dictionaries({
            "deadline_s": st.sampled_from((0.05, 0.2, 1.0)),
            "max_retries": st.integers(0, 3),
        })),
        "hedge": st.one_of(st.none(), st.fixed_dictionaries({
            "delay_s": st.sampled_from((0.0, 0.01, 0.05)),
        })),
        "breaker": st.one_of(st.none(), st.fixed_dictionaries({
            "failure_threshold": st.integers(1, 4),
            "cooldown_s": st.sampled_from((0.02, 0.1)),
        })),
        "shed": st.one_of(st.none(), st.fixed_dictionaries({
            "deadline_s": st.sampled_from((0.02, 0.1, 0.5)),
        })),
        "degrade": st.one_of(st.none(), st.fixed_dictionaries({
            "queue_budget_s": st.sampled_from((0.0, 0.01, 0.1)),
        })),
    })
    faults = st.fixed_dictionaries({
        "slowdown_windows": st.integers(0, 2),
        "slowdown_multiplier": st.sampled_from((2.0, 5.0)),
        "crash_windows": st.integers(0, 2),
        "pcie_windows": st.integers(0, 1),
        "straggler_probability": st.sampled_from((0.0, 0.1, 0.3)),
        "drop_probability": st.sampled_from((0.0, 0.1)),
    })
    return st.fixed_dictionaries({
        "num_queries": st.integers(20, 150),
        "qps": st.sampled_from((50.0, 200.0, 1000.0)),
        "num_replicas": st.integers(1, 3),
        "max_batch": st.sampled_from((1, 8, 64)),
        "base_ms": st.sampled_from((0.5, 2.0, 10.0)),
        "policy": policy,
        "faults": faults,
        "seed": st.integers(0, 2**16),
    })


def _synthetic_stm(base_ms: float, scale: float = 1.0):
    from repro.runtime.scheduler import ServiceTimeModel
    from repro.runtime.session import InferenceProfile

    profiles = [
        InferenceProfile(
            model_name="fuzz", platform_name="sim", platform_kind="cpu",
            batch_size=b,
            compute_seconds=scale * base_ms * 1e-3 * (1.0 + 0.05 * b),
            data_comm_seconds=scale * base_ms * 1e-4 * b,
            op_time_by_kind={"FC": scale * base_ms * 1e-3},
        )
        for b in (1, 64)
    ]
    return ServiceTimeModel.from_profiles(profiles)


def _build_policy(spec: Mapping[str, Any]):
    from repro.resilience.policies import (
        CircuitBreakerPolicy,
        DegradationPolicy,
        HedgePolicy,
        ResiliencePolicy,
        RetryPolicy,
        SheddingPolicy,
    )

    retry = spec["retry"]
    hedge = spec["hedge"]
    breaker = spec["breaker"]
    shed = spec["shed"]
    degrade = spec["degrade"]
    return ResiliencePolicy(
        retry=RetryPolicy(**retry) if retry else None,
        hedge=HedgePolicy(**hedge) if hedge else None,
        breaker=CircuitBreakerPolicy(**breaker) if breaker else None,
        shed=SheddingPolicy(**shed) if shed else None,
        degrade=DegradationPolicy(**degrade) if degrade else None,
    )


def _check_scheduler(example: Mapping[str, Any]) -> None:
    from repro.resilience.engine import ResilientScheduler
    from repro.resilience.faults import FaultPlan
    from repro.resilience.server import Replica
    from repro.runtime.scheduler import BatchingPolicy

    stm = _synthetic_stm(example["base_ms"])
    cheap = _synthetic_stm(example["base_ms"], scale=0.25)
    names = [f"r{i}" for i in range(example["num_replicas"])]
    replicas = [Replica(n, stm, degraded_model=cheap) for n in names]
    horizon = 2.0 * example["num_queries"] / example["qps"] + 1.0
    plan = FaultPlan.synthesize(
        example["seed"], names, horizon, **example["faults"]
    )
    result = ResilientScheduler(
        replicas,
        BatchingPolicy(max_batch=example["max_batch"]),
        resilience=_build_policy(example["policy"]),
        fault_plan=plan,
        seed=example["seed"],
    ).run(example["qps"], num_queries=example["num_queries"])
    _require(
        result.accounting_ok(),
        f"query accounting broke conservation: completed={result.completed} "
        f"shed={result.shed} dropped={result.dropped} "
        f"issued={result.queries} latencies={len(result.latencies_s)}",
    )


# -- 6b. query-trace decomposition: exact sum, zero perturbation ------------


def _querytrace_examples() -> st.SearchStrategy:
    # The scheduler strategy (faults x policies x fleet shapes) plus a
    # shard axis: 0 runs the plain replica path, 2/4 put a sharded
    # gather model (with its own synthesized shard fault plan) behind
    # the fleet so gather/partial-wait intervals get exercised too.
    return _scheduler_examples().flatmap(
        lambda base: st.fixed_dictionaries({
            **{k: st.just(v) for k, v in base.items()},
            "shards": st.sampled_from((0, 2, 4)),
        })
    )


def _check_querytrace(example: Mapping[str, Any]) -> None:
    import math

    from repro.resilience.engine import ResilientScheduler
    from repro.resilience.faults import FaultPlan
    from repro.resilience.server import Replica
    from repro.runtime.scheduler import BatchingPolicy
    from repro.telemetry.querytrace import COMPONENTS, QueryTraceCapture

    stm = _synthetic_stm(example["base_ms"])
    cheap = _synthetic_stm(example["base_ms"], scale=0.25)
    names = [f"r{i}" for i in range(example["num_replicas"])]
    horizon = 2.0 * example["num_queries"] / example["qps"] + 1.0
    plan = FaultPlan.synthesize(
        example["seed"], names, horizon, **example["faults"]
    )
    gather = None
    if example["shards"]:
        from repro.distserve.gather import GatherPolicy, ShardGatherModel
        from repro.distserve.placement import build_layout
        from repro.distserve.scenario import synthesize_shard_plan
        from repro.models import build_model

        layout = build_layout(build_model("ncf"), example["shards"])
        shard_plan = synthesize_shard_plan(
            example["seed"], layout.names, horizon, target=layout.names[0]
        )
        gather = ShardGatherModel(
            layout, policy=GatherPolicy.none(),
            fault_plan=shard_plan, seed=example["seed"],
        )

    def run(capture):
        return ResilientScheduler(
            [Replica(n, stm, degraded_model=cheap) for n in names],
            BatchingPolicy(max_batch=example["max_batch"]),
            resilience=_build_policy(example["policy"]),
            fault_plan=plan,
            seed=example["seed"],
            gather=gather,
            querytrace=capture,
        ).run(example["qps"], num_queries=example["num_queries"])

    base = run(None)
    qt = QueryTraceCapture()
    traced = run(qt)
    _require(
        np.array_equal(base.latencies_s, traced.latencies_s),
        "query-trace capture perturbed latencies (observational "
        "contract broken)",
    )
    _require(
        base.batch_sizes == traced.batch_sizes,
        "query-trace capture perturbed batch assembly",
    )
    _require(
        qt.completed == traced.completed,
        f"capture kept {qt.completed} records for "
        f"{traced.completed} completed queries",
    )
    for qid, rec in sorted(qt.records.items()):
        _require(
            all(rec.components[k] >= 0.0 for k in COMPONENTS),
            f"query {qid}: negative component in {rec.components!r}",
        )
        _require(
            rec.conservation_ok(),
            f"query {qid}: components sum to "
            f"{math.fsum(rec.components[k] for k in COMPONENTS)!r} "
            f"but measured latency is {rec.latency!r}",
        )


# -- 7. single-shard colocation bit-identical ------------------------------


def _colocation_examples() -> st.SearchStrategy:
    return st.fixed_dictionaries({
        "model": st.sampled_from(("ncf", "rm1", "rm2", "din")),
        "num_queries": st.integers(20, 120),
        "qps": st.sampled_from((100.0, 500.0)),
        "max_batch": st.sampled_from((8, 64)),
        "seed": st.integers(0, 2**16),
    })


def _check_colocation(example: Mapping[str, Any]) -> None:
    from repro.distserve.gather import GatherPolicy, ShardGatherModel
    from repro.distserve.placement import build_layout
    from repro.models import build_model
    from repro.resilience.engine import ResilientScheduler
    from repro.resilience.faults import FaultPlan
    from repro.monitor.scenario import service_model_for
    from repro.resilience.server import Replica
    from repro.runtime.scheduler import BatchingPolicy

    model = build_model(example["model"])
    stm = service_model_for(model, "broadwell", 64)
    gather = ShardGatherModel(
        build_layout(model, 1),
        policy=GatherPolicy.full(),
        fault_plan=FaultPlan.none(),
        seed=example["seed"],
    )

    def run(with_gather):
        return ResilientScheduler(
            [Replica("primary", stm)],
            BatchingPolicy(max_batch=example["max_batch"]),
            seed=example["seed"],
            gather=gather if with_gather else None,
        ).run(example["qps"], num_queries=example["num_queries"])

    base = run(False)
    sharded = run(True)
    _require(
        np.array_equal(base.latencies_s, sharded.latencies_s),
        "single-shard colocated gather changed latencies vs plain path",
    )
    _require(
        base.batch_sizes == sharded.batch_sizes,
        "single-shard colocated gather changed batch assembly",
    )
    _require(
        sharded.gather_counts == {},
        f"colocated layout performed remote gathers: "
        f"{sharded.gather_counts}",
    )


# -- registry --------------------------------------------------------------

CONTRACTS: Tuple[Contract, ...] = (
    Contract(
        "lowering_agreement",
        "framework lowerings redistribute per-kind time without changing "
        "the total (modulo runtime_overhead) or going negative",
        _lowering_examples, _check_lowering, cost=0.01,
    ),
    Contract(
        "optimizer_numerics",
        "optimize(graph) preserves executed outputs within documented "
        "float tolerance on random models and batches",
        _optimizer_examples, _check_optimizer, cost=0.05,
    ),
    Contract(
        "spec_numeric_equivalence",
        "session profiles equal the scalar CPU/GPU model walk exactly "
        "(compute, data-comm, per-kind op time)",
        _specmode_examples, _check_specmode, cost=0.02,
    ),
    Contract(
        "verifier_spec_inference",
        "verifier-inferred output specs match executed output names, "
        "shapes, and dtypes",
        _verifier_examples, _check_verifier, cost=0.03,
    ),
    Contract(
        "ledger_byte_stability",
        "run-ledger records are byte-stable across re-recordings and "
        "JSON round trips",
        _ledger_examples, _check_ledger, cost=0.15,
    ),
    Contract(
        "scheduler_conservation",
        "completed + shed + dropped == issued under random fault plans "
        "and policy mixes",
        _scheduler_examples, _check_scheduler, cost=0.02,
    ),
    Contract(
        "latency_decomposition_conservation",
        "query-trace capture is bit-neutral to the schedule and every "
        "completed query's decomposition sums exactly (==) to its "
        "measured latency under random fault plans x policy mixes x "
        "shard layouts",
        _querytrace_examples, _check_querytrace, cost=0.05,
    ),
    Contract(
        "single_shard_colocation",
        "a colocated single-shard gather layout is bit-identical to the "
        "plain scheduler path",
        _colocation_examples, _check_colocation, cost=0.1,
    ),
)


def contract_by_name(name: str) -> Contract:
    for contract in CONTRACTS:
        if contract.name == name:
            return contract
    known = [c.name for c in CONTRACTS]
    raise KeyError(f"unknown contract {name!r}; available: {known}")
