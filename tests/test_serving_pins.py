"""Byte-level pins of the serving loops and of what their sinks record.

Each digest is a sha256 over the exact float64 bytes of a run's outputs,
or over the JSON of a sink's state (JSON prints every float with its
shortest round-trip repr, so equal JSON means equal bits). The pins
cover the plain ``QueryScheduler`` across batch caps, timeouts and
loads from light to overload, with the metrics registry,
``TimeSeries`` and ``QueryTraceCapture`` attached, plus one
retry-heavy ``ResilientScheduler`` run. A change to either engine must
leave every digest unchanged.
"""

import dataclasses
import hashlib
import json
from collections.abc import Mapping

import numpy as np
import pytest

from repro import telemetry
from repro.models import build_model
from repro.monitor.scenario import build_scenario, service_model_for
from repro.runtime import BatchingPolicy, QueryScheduler
from repro.telemetry import TimeSeries
from repro.telemetry.querytrace import QueryTraceCapture

#: Loads as fractions of the server's full-batch peak rate; 1.2 is
#: overload (the queue grows for the whole run).
LOADS = (0.05, 0.3, 0.7, 0.95, 1.2)
QUERIES = 2000


@pytest.fixture(scope="module")
def rm1_t4():
    return service_model_for(build_model("rm1"), "t4", 64)


def _sha(payload) -> str:
    if isinstance(payload, (bytes, bytearray)):
        return hashlib.sha256(payload).hexdigest()
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _result_bytes(result) -> bytes:
    return (
        np.ascontiguousarray(result.latencies_s, dtype=np.float64).tobytes()
        + np.asarray(result.batch_sizes, dtype=np.int64).tobytes()
        + np.float64(result.duration_s).tobytes()
    )


def _plain(value):
    """Dataclasses, mappings and sequences as JSON-ready containers."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _capture_state(capture: QueryTraceCapture) -> dict:
    return {
        "completed": capture.completed,
        "shed": capture.shed_queries,
        "dropped": capture.dropped_queries,
        "component_totals": capture.component_totals,
        "records": [
            _plain(capture.records[qid])
            for qid in sorted(capture.records)
        ],
    }


def _plain_runs(stm, policy):
    """(bare results digest, sink state digest) over :data:`LOADS`."""
    peak = policy.max_batch / stm.seconds(policy.max_batch)
    bare, sinks = [], []
    for load in LOADS:
        qps = peak * load
        result = QueryScheduler(stm, policy, seed=11).run(qps, QUERIES)
        ts = TimeSeries(window_s=QUERIES / qps / 16)
        capture = QueryTraceCapture(seed=11, max_queries=200)
        with telemetry.capture() as (_, registry):
            observed = QueryScheduler(
                stm, policy, seed=11, timeseries=ts, querytrace=capture
            ).run(qps, QUERIES)
        # Sinks are observational: the observed run equals the bare one.
        assert _result_bytes(observed) == _result_bytes(result)
        bare.append(_result_bytes(result))
        sinks.append({
            "timeseries": ts.to_state(),
            "registry": [
                r for r in registry.snapshot()
                if r["name"].startswith("scheduler.")
            ],
            "querytrace": _capture_state(capture),
        })
    return _sha(b"".join(bare)), _sha(sinks)


#: (max_batch, batch_timeout_s) -> (results digest, sink state digest).
#: With max_batch=1 every batch is full and closes at its only arrival,
#: so both timeouts give the same digests.
PLAIN_PINS = {
    (1, 0.0): (
        "f4871a838666639316e537a4c49d9a695fc5013ced4890ab83a34a3f4733965d",
        "13dc924648a073fccc32bfbda39e621ab8fb2e2f6873d4c2d559442a21f1c909",
    ),
    (1, 0.002): (
        "f4871a838666639316e537a4c49d9a695fc5013ced4890ab83a34a3f4733965d",
        "13dc924648a073fccc32bfbda39e621ab8fb2e2f6873d4c2d559442a21f1c909",
    ),
    (7, 0.0): (
        "3bf8e88bf6155d61564900537acaddd306f14a6cf0ce30484f94d761644de5b6",
        "0352a9e1f1eb68be34c71b40d15cf4481e8ed005e533f3e8924f4561c956e82a",
    ),
    (7, 0.002): (
        "1c029d19f16d82afc351f4f279b6f9f1623aeb2424f9f366a90ab74b866252b4",
        "9ed7425d9fe731e2ea234f96dc9b0025a70257576e2daf442c4ba7175a5db258",
    ),
    (64, 0.0): (
        "beed17cdaf6aa69060184f6d97993bffaac807338ae62c010363862dd15007bd",
        "fe6abecbb50820256aa6a09626ca9ef216da86582de1b8fe88211390d7dbd7ee",
    ),
    (64, 0.002): (
        "50a406c1c1068a4b405084aef87c34e72f0ba096f02cf5788dd49943d7e3669b",
        "b00413b5ede19817076ddd8848ed5b451abc841a7605d554fa0a8dc71e6deab0",
    ),
}


@pytest.mark.parametrize("max_batch", [1, 7, 64])
@pytest.mark.parametrize("timeout", [0.0, 0.002])
def test_plain_loop_pins(rm1_t4, max_batch, timeout):
    policy = BatchingPolicy(max_batch=max_batch, batch_timeout_s=timeout)
    assert _plain_runs(rm1_t4, policy) == PLAIN_PINS[(max_batch, timeout)]


RESILIENT_PIN = (
    "f3a4bd4e7be49e35f1f15529ad30121d80c6de9ce02036b626cc8c9e13da5c4a",
    "62bcd951c2085b8f668dd860930951c6ff2180eaf83171ba47c037b6bfb20a50",
)


def test_retry_heavy_resilient_pin():
    """rm1/t4 under a 5x slowdown with retry + shed and a 5 ms
    deadline: about 250 retries merge back into the arrival stream."""
    setup = build_scenario(
        "rm1", "t4", "slowdown", queries=4000, deadline_s=0.005,
        scenario_overrides={"slowdown_multiplier": 5.0},
    )
    ts = TimeSeries(window_s=setup.window_s)
    capture = QueryTraceCapture(seed=setup.seed, max_queries=200)
    result = setup.scheduler(
        setup.policy_with("retry", "shed"), timeseries=ts, querytrace=capture
    ).run(setup.qps, setup.queries)
    assert (result.retries, result.shed) == (253, 711)
    counters = dataclasses.asdict(result)
    for key in ("latencies_s", "batch_sizes", "duration_s"):
        counters.pop(key)
    digests = (
        _sha(_result_bytes(result) + _sha(counters).encode()),
        _sha({"timeseries": ts.to_state(),
              "querytrace": _capture_state(capture)}),
    )
    assert digests == RESILIENT_PIN
