"""Byte-level pins of the serving loops and of what their sinks record.

Each digest is a sha256 over the exact float64 bytes of a run's outputs,
or over the JSON of a sink's state (JSON prints every float with its
shortest round-trip repr, so equal JSON means equal bits). The pins
cover the plain ``QueryScheduler`` across batch caps, timeouts and
loads from light to overload, with the metrics registry,
``TimeSeries`` and ``QueryTraceCapture`` attached, one retry-heavy
``ResilientScheduler`` run, and every named fault scenario as
``repro monitor`` runs it. A change to either engine must leave every
digest unchanged.
"""

import dataclasses
import hashlib
import json
from collections.abc import Mapping

import numpy as np
import pytest

from repro import telemetry
from repro.models import build_model
from repro.monitor.scenario import (
    SCENARIOS,
    build_scenario,
    is_shard_scenario,
    run_monitored_scenario,
    service_model_for,
)
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


def _resilient_counters(result) -> dict:
    """Every result field but the three :func:`_result_bytes` covers."""
    counters = dataclasses.asdict(result)
    for key in ("latencies_s", "batch_sizes", "duration_s"):
        counters.pop(key)
    return counters


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
    digests = (
        _sha(_result_bytes(result) + _sha(_resilient_counters(result)).encode()),
        _sha({"timeseries": ts.to_state(),
              "querytrace": _capture_state(capture)}),
    )
    assert digests == RESILIENT_PIN


#: scenario -> (result digest, ``TimeSeries.to_state()`` digest,
#: ``TimeSeries.compact_state()`` digest) of a monitored run with 4000
#: queries: replica scenarios on rm1/t4 with a broadwell fallback (so
#: hedges, failover, the breaker and degradation fire), shard
#: scenarios on rm2/broadwell.
SCENARIO_PINS = {
    "slowdown": (
        "746a481e09c449e4b430782b80904276629d7142b2ec3fe67d0b586e289d543d",
        "7f608486c465f00901ecabc67fca3fb9d74fad98701956af3fc38954fc3d21df",
        "09a8af4dc418bac889097b1c9ee84625d1f0a917fa59eecc6bdaad5efab1dcea",
    ),
    "crash": (
        "659b2e7bd8faff6b45d616fc12c6fee1849f2b944607cd2f037163d9f670f780",
        "63d5dd62eeec581a55d3006ea38053bd2a36fe302e535c5039a7fd542138e7ce",
        "e4adf62d3e635c944c55dc7957fc4dac1541f57edde568cab75920151c5900da",
    ),
    "drops": (
        "512c87586dfd6de599d5d2c45dc6ee5afd431a8f813440beff558167b6cc81aa",
        "ad07736507a6004d39adf8716ce1bbdc9dcdb535ec86149c1badd3238573c816",
        "2b0ab93ba8e5fa1212ff2c5e25f731eb2bedbba566800dd1cb835fb988dc448c",
    ),
    "stragglers": (
        "76dbcc5a4cd1d56e54d6c0b6eee5f589714bf4026f21d8159a3c6297f978f0c9",
        "49c2fa4d0538e70458df4c5d5c91e00312ef104d8c924383d9d90bc77a630acb",
        "2cc234441b0a3f908b326428dd0dc82d00bba784f008dc05aff47b6ee4cd9e44",
    ),
    "pcie": (
        "1b9a395a38936ccb17baa27992b7fb0dd1c6b2c8ea1f4a3a4348c4b4ba136208",
        "37850d5a7005f00924a366b4112ffc4e67836dae42dd250abb6363a1fd88c676",
        "6601afa43cfbe3a9b3252118c8a65a4885878bb366ca653be92eb3eb49278a50",
    ),
    "mixed": (
        "a9a92cbb70dd125a674ef0bf3f89345634aa2194f2905ea2b293b18f5bdeccfb",
        "d8ff75ebb808a2503416f979ac2f7a314ab0c0e70aba0a426189c6853efb9481",
        "0100cd0eb17183e32d42b5601c869f6fba0053bde09806b107b939f88dee8286",
    ),
    "shard_slowdown": (
        "355096b54e14e4ed828affb40358be27dde3bedc1fae1bfc5b5c4693c0d05e13",
        "f96b63e3597f8cc13b67aa3e26a7f3d6b24eb07c7b0588179c34d276a8f51a40",
        "81c93845ade421f116b16dd130ed995ab700d2679e710c9fd316c3d4395ed35f",
    ),
    "shard_crash": (
        "3b7aa0e8337eaceba04a82743371a3cf0f8f66180b1a87ed69838bc8da75a104",
        "32738cf79a5d6b67768f3f82dd63b88c2b3a9bc2ffc5733c386ce4af1b8b9354",
        "9335e4abecee7785124f737b64ba8a59834a8bc97a3cb73c3ccc723b7bf891f7",
    ),
    "shard_network": (
        "ec3547192c4965874b9263a9eeccb894b53503a99e608fcfda71564f632a0a09",
        "2c1f8e58cc71634334b377ffd9b143e9e6fac5697f8aeb8b4d738a99aa1de44a",
        "e8028cc91827b4bedde124a0289b7f417f0f4cfb10fa039e93f69879983df5a8",
    ),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_monitored_scenario_pins(scenario):
    if is_shard_scenario(scenario):
        ms = run_monitored_scenario("rm2", "broadwell", scenario, queries=4000)
    else:
        ms = run_monitored_scenario(
            "rm1", "t4", scenario, queries=4000, fallback="broadwell"
        )
    result = ms.result
    digests = (
        _sha(_result_bytes(result) + _sha(_resilient_counters(result)).encode()),
        _sha(ms.timeseries.to_state()),
        _sha(ms.timeseries.compact_state()),
    )
    assert digests == SCENARIO_PINS[scenario]


def _observed_scenario(scenario):
    """One scenario's monitored run with a capture attached and
    telemetry on: ``(result, capture, spans)``."""
    if is_shard_scenario(scenario):
        setup = build_scenario("rm2", "broadwell", scenario, queries=4000)
    else:
        setup = build_scenario(
            "rm1", "t4", scenario, queries=4000, fallback="broadwell"
        )
    capture = QueryTraceCapture(seed=setup.seed, max_queries=200)
    scheduler = setup.scheduler(
        setup.policy, timeseries=TimeSeries(window_s=setup.window_s),
        querytrace=capture,
    )
    with telemetry.capture() as (tracer, _):
        result = scheduler.run(setup.qps, num_queries=setup.queries)
    # Span ids count every span the process has made; drop them.
    spans = [dict(_plain(s), span_id=None) for s in tracer.spans()]
    return result, capture, spans


#: scenario -> (``QueryTraceCapture`` state digest, engine span list
#: digest) of the :data:`SCENARIO_PINS` run with a capture attached
#: and telemetry on: hedge legs, crash attempts, gather pieces, fault
#: windows and every ``*.batch`` / ``*.hedge`` span, in emission order.
CAPTURE_SPAN_PINS = {
    "crash": (
        "1b55054587039c3b17c70920e130ddec54823b23a05b174dbf63ea9f4052b176",
        "8d4a7028db9116936a4a94b86935538cf2d7115ac2edf353d58e69bcc177e3c7",
    ),
    "drops": (
        "b9f4407f56be29af6a403f434e9af5239e41e341a20224c7ba052ef43db7cb28",
        "cdf8ac9e4c5a32500897a22adb5d1a200929c3392f3fb6d1ab93de4cace6f061",
    ),
    "mixed": (
        "77d1b33a24d3c6bd27300f9d7d7cd1892c7f546d573d422dd563944b2c3c480b",
        "50d1ab920f585ee02499966a6184c9a5a6bd3324c8e6d051aba69cb2cb8fdc25",
    ),
    "pcie": (
        "efc101579a88607e95313bd221d86fbf9868bc1e9864a7b1e93fb410e0bcf354",
        "f155645aaef3505899d8cada8cf782c5a8271a165ac12d78843115010098d4ba",
    ),
    "shard_crash": (
        "6579b251511379471081a4287b093429c4f3c6c413dffe2a95091b859a4d7ffa",
        "9da3520d3fdbe8bfb1fe42b53cbb7ef572e4c69a9be264ca6a0c49e88d2417fe",
    ),
    "shard_network": (
        "24b6e9935411dba350a248cfd81ad57e8241d15bdb2c8d72065551cae387ffe6",
        "261d0863a7bb8a1ad4d37166820388e735500906eabdee7988fcc8a0e64dff69",
    ),
    "shard_slowdown": (
        "3741bedd91f686366ea687cf1b1f18738b2d8e55c72c2ab9581beda05897e02d",
        "a5af4d4c5ad94a11b00090a8065c613c0ec662aca52adfe287d25d7dc1ca144b",
    ),
    "slowdown": (
        "8cc6e652d12db85b3ae89c3a62a043b187654b81b2ef3aa12ea9ad24e0b216eb",
        "381f04abb3009bf4304b0b0bcacf4a984c8292d730407015988e2568d2756ebd",
    ),
    "stragglers": (
        "01bfd1066ad3e161eedddf01067ee0955c0ef6f3540d63b2fa02c42a53cea5aa",
        "1434d8c880c4a74e58a15a49c94e100b634f7e729a1487d1dc035555cb24d3c3",
    ),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scenario_capture_and_span_pins(scenario):
    result, capture, spans = _observed_scenario(scenario)
    # The sinks are observational: the result is the monitored run's.
    assert _sha(
        _result_bytes(result) + _sha(_resilient_counters(result)).encode()
    ) == SCENARIO_PINS[scenario][0]
    state = dict(
        _capture_state(capture),
        shard_totals=capture.shard_totals, coverage=capture.coverage(),
    )
    digests = (_sha(state), _sha(spans))
    assert digests == CAPTURE_SPAN_PINS[scenario]


#: (scenario, deadline_s, policy parts) -> capture state digest of a
#: 3000-query rm1/t4 run with no fallback at 0.7x peak, every record
#: kept: queries parked while the only replica is down, retried after
#: a timeout or a lost response, dropped after their last retry, shed.
REQUEUED_PINS = {
    ("crash", 0.004, ("retry",)):
        "8c8cdb6cbcea2949a7f44a8854e04bab9bb8e38f1ccfdc64566afc19636106a2",
    ("mixed", None, ("retry", "shed", "degrade")):
        "19a4e4e65f1f308fad6a29541e19a057706eb145e7cf78c19fd59b174bc6204f",
}


@pytest.mark.parametrize("key", sorted(REQUEUED_PINS, key=repr), ids=repr)
def test_requeued_work_capture_pins(key):
    scenario, deadline_s, parts = key
    setup = build_scenario(
        "rm1", "t4", scenario, queries=3000, fallback=None, load=0.7,
        deadline_s=deadline_s,
    )
    capture = QueryTraceCapture(seed=setup.seed, max_queries=3000)
    result = setup.scheduler(
        setup.policy_with(*parts), querytrace=capture
    ).run(setup.qps, setup.queries)
    records = capture.records.values()
    # The run exercises what the pin is for.
    assert any(r.attempts[0].ready > r.arrival for r in records)
    assert any(r.attempts[-1].attempt > 0 for r in records)
    assert capture.dropped_queries + capture.shed_queries > 0
    assert capture.dropped_queries == result.dropped
    state = dict(_capture_state(capture), coverage=capture.coverage())
    assert _sha(state) == REQUEUED_PINS[key]
