"""Byte-level pins of the serving loops and of what their sinks record.

Each digest is a sha256 over the exact float64 bytes of a run's outputs,
or over the JSON of a sink's state (JSON prints every float with its
shortest round-trip repr, so equal JSON means equal bits). The pins
cover the plain ``QueryScheduler`` across batch caps, timeouts and
loads from light to overload, with its metrics registry, and the same
runs on a one-replica ``ResilientScheduler`` with ``TimeSeries`` and
``QueryTraceCapture`` attached, one retry-heavy
``ResilientScheduler`` run, every named fault scenario as
``repro monitor`` runs it, every ``repro shard`` matrix row, and the
per-piece outcomes of direct shard gathers under every gather policy.
A change to either engine or to the shard gather must leave every
digest unchanged.
"""

import dataclasses
import hashlib
import json
from collections.abc import Mapping

import numpy as np
import pytest

from repro import telemetry
from repro.distserve import (
    GatherHedgePolicy,
    GatherPolicy,
    LocalityAwarePlacement,
    PartialGatherPolicy,
    ReplicatedReadPolicy,
    ShardGatherModel,
    build_layout,
    run_shard_matrix,
)
from repro.distserve.scenario import synthesize_shard_plan
from repro.models import build_model
from repro.monitor.scenario import (
    SCENARIOS,
    ScenarioRecipe,
    build_scenario,
    is_shard_scenario,
    run_monitored_scenario,
    service_model_for,
)
from repro.resilience import Replica, ResilientScheduler
from repro.runtime import BatchingPolicy, QueryScheduler
from repro.telemetry import TimeSeries
from repro.telemetry.querytrace import QueryTraceCapture
from repro.workloads import ZipfIndices

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


#: How many records a capture-state digest covers: the slowest, by
#: ``(latency, qid)``.
PINNED_RECORDS = 200


def _record_state(record) -> dict:
    return {
        "qid": record.qid,
        "arrival": record.arrival,
        "completion": record.completion,
        "latency": record.latency,
        "components": record.components,
        "intervals": record.intervals,
        "attempts": record.attempts,
        "shard_seconds": record.shard_seconds,
    }


def _capture_state(capture: QueryTraceCapture, keep=PINNED_RECORDS) -> dict:
    slowest = sorted(
        capture.records.values(), key=lambda r: (r.latency, r.qid)
    )[-keep:]
    return {
        "completed": capture.completed,
        "shed": capture.shed_queries,
        "dropped": capture.dropped_queries,
        "component_totals": capture.component_totals,
        "records": [
            _plain(_record_state(r))
            for r in sorted(slowest, key=lambda r: r.qid)
        ],
    }


def _plain_runs(stm, policy):
    """Digests over :data:`LOADS`: the bare results, the ``TimeSeries``
    state, the registry's ``scheduler.*`` snapshot of the bare run and
    the ``QueryTraceCapture`` state. The plain loop takes no sink, so
    the ``TimeSeries`` and the capture observe the same run on a
    one-replica ``ResilientScheduler`` named after the platform."""
    peak = policy.max_batch / stm.seconds(policy.max_batch)
    bare, series, metrics, captures = [], [], [], []
    for load in LOADS:
        qps = peak * load
        with telemetry.capture() as (_, registry):
            result = QueryScheduler(stm, policy, seed=11).run(qps, QUERIES)
        ts = TimeSeries(window_s=QUERIES / qps / 16)
        capture = QueryTraceCapture(seed=11)
        observed = ResilientScheduler(
            [Replica(stm.platform, stm)], policy, seed=11,
            timeseries=ts, querytrace=capture,
        ).run(qps, QUERIES)
        # The one-replica engine with sinks equals the bare loop.
        assert _result_bytes(observed) == _result_bytes(result)
        bare.append(_result_bytes(result))
        series.append(ts.to_state())
        metrics.append([
            r for r in registry.snapshot()
            if r["name"].startswith("scheduler.")
        ])
        captures.append(_capture_state(capture))
    return (
        _sha(b"".join(bare)), _sha(series), _sha(metrics), _sha(captures)
    )


#: (max_batch, batch_timeout_s) -> (results, ``TimeSeries``, registry,
#: capture) digests. With max_batch=1 every batch is full and closes at
#: its only arrival, so both timeouts give the same digests.
PLAIN_PINS = {
    (1, 0.0): (
        "f4871a838666639316e537a4c49d9a695fc5013ced4890ab83a34a3f4733965d",
        "e15c563e834d9de22d331975171ca5d9fd73b70b83c36a474a1e97cad18ecb30",
        "9717bbbac1be0d852c1fc11bc5b13b30088417312298b4c625f2e83be1e6d6de",
        "5b6c32fe341402c9e444aed883061c8080fb9b57e401e1fe85f6c5435ccaf99e",
    ),
    (1, 0.002): (
        "f4871a838666639316e537a4c49d9a695fc5013ced4890ab83a34a3f4733965d",
        "e15c563e834d9de22d331975171ca5d9fd73b70b83c36a474a1e97cad18ecb30",
        "9717bbbac1be0d852c1fc11bc5b13b30088417312298b4c625f2e83be1e6d6de",
        "5b6c32fe341402c9e444aed883061c8080fb9b57e401e1fe85f6c5435ccaf99e",
    ),
    (7, 0.0): (
        "3bf8e88bf6155d61564900537acaddd306f14a6cf0ce30484f94d761644de5b6",
        "e24e217eaa194abfbfcc72c8570939df02b31910bcf3c3604b071c4fc6dd9130",
        "4095f908b0bb83f60486ea0c88a51a38ebcb116b7b7c45f4a30d19562b9fb6cd",
        "b8ac381038586f393a480baaec4aaf3b40e3129a8e7f3989bb5e22ed0bc421ac",
    ),
    (7, 0.002): (
        "1c029d19f16d82afc351f4f279b6f9f1623aeb2424f9f366a90ab74b866252b4",
        "7dd564fec82f8b0f5cc39247d2286dd29aa2a1e4680fd0d8f0937729ff003e6b",
        "b6850d03c1aa3be3c877a599f2cccd1a9d91bb2cb10b17569dba6e03e3476e8f",
        "dbc2c1e65b2d7924b990e6a7f90ad42900e9baaf55f39f53351190251999286b",
    ),
    (64, 0.0): (
        "beed17cdaf6aa69060184f6d97993bffaac807338ae62c010363862dd15007bd",
        "ed0cfeb47fc4d3173e2cf530572bf57d1fea4e5eb2e0e31a49ef6d9e2a5f6e1a",
        "08097902f96e0843cc8b5f4777e8b3a2faa02070aea7c2ab9a936505afd48840",
        "25b31edc70a7a5f2195eb84fac0bd1a495fa5d317e3a71661e6f083267d1f4f8",
    ),
    (64, 0.002): (
        "50a406c1c1068a4b405084aef87c34e72f0ba096f02cf5788dd49943d7e3669b",
        "048020abe09904c2676da266c0dc0974eb6f1c9e748c05445975164d823fca02",
        "a439f33aeba598fb1561e17aba5e897e58da60f6484781420c73eb4a6c5a575b",
        "cc87c78875f110a03d69476f0d81b4a72a2c6fd9aa41fa969f69387d6cf5f6a6",
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
    "22e3b8a6b171cf36f91c453c14f6f17ac026c8a7811684146ee048cac1d7bbb9",
)


def test_retry_heavy_resilient_pin():
    """rm1/t4 under a 5x slowdown with retry + shed and a 5 ms
    deadline: about 250 retries merge back into the arrival stream."""
    setup = build_scenario(ScenarioRecipe(
        "rm1", "t4", "slowdown", queries=4000, deadline_s=0.005,
        scenario_overrides={"slowdown_multiplier": 5.0},
    ))
    ts = TimeSeries(window_s=setup.window_s)
    capture = QueryTraceCapture(seed=setup.seed)
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
        setup = build_scenario(
            ScenarioRecipe("rm2", "broadwell", scenario, queries=4000)
        )
    else:
        setup = build_scenario(ScenarioRecipe(
            "rm1", "t4", scenario, queries=4000, fallback="broadwell"
        ))
    capture = QueryTraceCapture(seed=setup.seed)
    scheduler = setup.scheduler(
        setup.policy, timeseries=TimeSeries(window_s=setup.window_s),
        querytrace=capture,
    )
    with telemetry.capture() as (tracer, _):
        result = scheduler.run(setup.qps, num_queries=setup.queries)
    # Span ids are not part of the pin.
    spans = [dict(_plain(s), span_id=None) for s in tracer.spans()]
    return result, capture, spans


#: scenario -> (``QueryTraceCapture`` state digest, engine span list
#: digest) of the :data:`SCENARIO_PINS` run with a capture attached
#: and telemetry on: hedge legs, crash attempts, gather pieces, fault
#: windows and every ``*.batch`` / ``*.hedge`` span, in emission order.
CAPTURE_SPAN_PINS = {
    "crash": (
        "1a8e374342eefd9fd736829645a904cc3b72f70d7656a37e0455042d9f48d860",
        "8d4a7028db9116936a4a94b86935538cf2d7115ac2edf353d58e69bcc177e3c7",
    ),
    "drops": (
        "3f2c0efbf24dd69980439e2b5a2a5e9ecfde2926b518cd5a293be62e4fbda0d8",
        "cdf8ac9e4c5a32500897a22adb5d1a200929c3392f3fb6d1ab93de4cace6f061",
    ),
    "mixed": (
        "718f4f5af284983f86cab43ac448b92252fbe05c79013fc377270f972a7e86ce",
        "50d1ab920f585ee02499966a6184c9a5a6bd3324c8e6d051aba69cb2cb8fdc25",
    ),
    "pcie": (
        "33eeee1381d3335f52fb7277b6df02165e5e6f3b265c86cb2b35bba24cbb5bc9",
        "f155645aaef3505899d8cada8cf782c5a8271a165ac12d78843115010098d4ba",
    ),
    "shard_crash": (
        "1768475b5d44163b1b199f50c735efb253b527a2db1474f064c41448c7cd1c6d",
        "9da3520d3fdbe8bfb1fe42b53cbb7ef572e4c69a9be264ca6a0c49e88d2417fe",
    ),
    "shard_network": (
        "a814c74c3b24928e5d2ad6622b7790461af2c078954d71018fa56da97e1a6c16",
        "261d0863a7bb8a1ad4d37166820388e735500906eabdee7988fcc8a0e64dff69",
    ),
    "shard_slowdown": (
        "6587fa81def2011e7b0386240c0d68b55c841caaead4c20b52657d0489c556ba",
        "a5af4d4c5ad94a11b00090a8065c613c0ec662aca52adfe287d25d7dc1ca144b",
    ),
    "slowdown": (
        "d70750845bf859111f8f9ff42f22eef86eea1e68e7937f71257548110d6c60a1",
        "381f04abb3009bf4304b0b0bcacf4a984c8292d730407015988e2568d2756ebd",
    ),
    "stragglers": (
        "dc814a8e7688b99672fa7a827ba2faed8c502df0c4a385e0e79c094b62b18fdb",
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
    state = dict(_capture_state(capture), shard_totals=capture.shard_totals)
    digests = (_sha(state), _sha(spans))
    assert digests == CAPTURE_SPAN_PINS[scenario]


#: (scenario, deadline_s, policy parts) -> capture state digest of a
#: 3000-query rm1/t4 run with no fallback at 0.7x peak, every record
#: kept: queries parked while the only replica is down, retried after
#: a timeout or a lost response, dropped after their last retry, shed.
REQUEUED_PINS = {
    ("crash", 0.004, ("retry",)):
        "53c04bca784a6fca83f67addad16a69ef53a3b7b2b6859c905e8b458db6a7cf0",
    ("mixed", None, ("retry", "shed", "degrade")):
        "0acb0e26a90744e0c482ffed1ce42473a51b3bdf7d7622ba3f42236f20e3fe7a",
}


@pytest.mark.parametrize("key", sorted(REQUEUED_PINS, key=repr), ids=repr)
def test_requeued_work_capture_pins(key):
    scenario, deadline_s, parts = key
    setup = build_scenario(ScenarioRecipe(
        "rm1", "t4", scenario, queries=3000, fallback=None, load=0.7,
        deadline_s=deadline_s,
    ))
    capture = QueryTraceCapture(seed=setup.seed)
    result = setup.scheduler(
        setup.policy_with(*parts), querytrace=capture
    ).run(setup.qps, setup.queries)
    records = capture.records.values()
    # The run exercises what the pin is for.
    assert any(r.attempts[0].ready > r.arrival for r in records)
    assert any(r.attempts[-1].attempt > 0 for r in records)
    assert capture.dropped_queries + capture.shed_queries > 0
    assert capture.dropped_queries == result.dropped
    state = _capture_state(capture, keep=len(capture.records))
    assert _sha(state) == REQUEUED_PINS[key]


def _matrix_row_state(row) -> str:
    """Digest of one ``run_shard_matrix`` row: latencies, batch sizes
    and every gather counter."""
    result = row.result
    return _sha(
        np.ascontiguousarray(result.latencies_s, dtype=np.float64).tobytes()
        + np.asarray(result.batch_sizes, dtype=np.int64).tobytes()
        + _sha(result.gather_counts).encode()
    )


#: shard scenario -> row label -> digest of that ``run_shard_matrix``
#: row (rm2/broadwell, seed 2020, the default 1500 queries). The rows
#: cover every gather branch: plain fan-out, hedged RPCs, replicated
#: quorum reads, partial gathers and blocked recovery.
SHARD_MATRIX_PINS = {
    "shard_crash": {
        "single-node":
            "91634f5f19d97f5268c89123891e966eafe383164b88859a482c8d2405df1884",
        "blind":
            "a6e6007dc02c6cdb2ce8290968905a4f12535d9c7c02411be64512156b530950",
        "blind+hedge":
            "096cd6a626caeb70fa33f29677760d2e95ebd673f3af2d3ba3335291f6e57c71",
        "locality":
            "8415fd09e23d397561452d249c0c81f0bfd6e1fbeb15b25e3e0377acf5428292",
        "locality+policies":
            "cb6f322911f4baf2f3530e04fe345ff7b63733b82ecf1ff9610261fcbd8f5c76",
    },
    "shard_network": {
        "single-node":
            "91634f5f19d97f5268c89123891e966eafe383164b88859a482c8d2405df1884",
        "blind":
            "9139e0e524e84a863b62892943d0af9d88e249bbcba20db76cd68c6d590714be",
        "blind+hedge":
            "288a9297ebf23f39fa639a1f63b74fa7db3b2e63e3054b1e1d55f495d48a1826",
        "locality":
            "5c833fbdbdc74c891eb813d3f76a69d0a1f8a8470e5a2ec7cb990ec12e2e0a3c",
        "locality+policies":
            "e53e0782b897051abab3b596838b8e14e1cc2dc997602e4ebf3a575e548f9d3b",
    },
    "shard_slowdown": {
        "single-node":
            "91634f5f19d97f5268c89123891e966eafe383164b88859a482c8d2405df1884",
        "blind":
            "2a600f9d98edd55067e5d68abd3de93b2060c5f84446e7e7e4c76bdd1b709f9e",
        "blind+hedge":
            "9e4675fe2bda603ade6f54ea3d1227bfb516a652a4c50c7a810f8c3106bd4d0d",
        "locality":
            "1dde5da951457af15501a8b51760253ccb6b2018e6766718d70f983c566ecdb0",
        "locality+policies":
            "09f0b62ba0336624ff2adf3b5c29ec47e08cdc7d1ad92da04871646f1284a0f6",
    },
}


@pytest.mark.parametrize(
    "scenario", ["shard_crash", "shard_network", "shard_slowdown"]
)
def test_shard_matrix_pins(scenario):
    matrix = run_shard_matrix(ScenarioRecipe(
        "rm2", "broadwell", scenario, queries=1500, seed=2020
    ))
    digests = {row.label: _matrix_row_state(row) for row in matrix.rows}
    assert digests == SHARD_MATRIX_PINS[scenario]


#: Gather policy name -> digest of every :class:`GatherOutcome` (with
#: ``detail=True`` pieces) and the final counters of a run of direct
#: gathers under the crash + drop + network plan of
#: ``tests/test_distserve.py::TestConservationUnderShardFaults``.
GATHER_DETAIL_PINS = {
    "cached":
        "849d63f42ebd4dec60e40f51f15322b74ca06adf4ed7b101139955a7da431afa",
    "full":
        "1b88868d28d1fbe4458ad7cfb4b646e7207dd4a558a7888f05b889f4cca4b394",
    "hedge":
        "534d159b2972295c7f89d956c3926dbaa63e991d11d91474cbeeaf23b774d910",
    "none":
        "5c95e4b16cba3ce8337e0d9f68e1fa7099a0b3f59942b6d85816761cb9be7756",
    "replicate":
        "13799ef5d8d4a99cb1e92efbeaf5a7a7c89bd109c53cb670db6753722a1a0687",
}

GATHER_POLICIES = {
    "none": GatherPolicy.none(),
    "hedge": GatherPolicy(hedge=GatherHedgePolicy(delay_s=1e-3)),
    "replicate": GatherPolicy(replicate=ReplicatedReadPolicy(replicas=2)),
    "cached": GatherPolicy(partial=PartialGatherPolicy(mode="cached")),
    "full": GatherPolicy.full(),
}


@pytest.mark.parametrize("policy", sorted(GATHER_DETAIL_PINS))
def test_gather_detail_pins(policy):
    layout = build_layout(
        build_model("rm2"), 4, placement=LocalityAwarePlacement(hot_k=1024),
        distribution=ZipfIndices(alpha=1.1),
    )
    plan = synthesize_shard_plan(
        50, layout.names, 0.15, target=layout.names[0],
        slowdown_windows=1, slowdown_multiplier=6.0, crash_windows=1,
        crash_duration_frac=0.1, straggler_probability=0.08,
        drop_probability=0.05, pcie_windows=1, pcie_scale=0.3,
    )
    run = ShardGatherModel(
        layout, policy=GATHER_POLICIES[policy], fault_plan=plan, seed=0,
    ).start_run()
    outcomes = [
        _plain(run.gather(batch, t, detail=True))
        for t in np.linspace(0.0, 0.16, 400).tolist()
        for batch in (1, 17, 32)
    ]
    assert any(o["pieces"] for o in outcomes)
    assert _sha({"outcomes": outcomes, "counts": run.counts}) == (
        GATHER_DETAIL_PINS[policy]
    )
