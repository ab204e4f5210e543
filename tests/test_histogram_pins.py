"""Byte-level pins of window histograms and of what is built from them.

Each digest is a sha256 over JSON (JSON prints every float with its
shortest round-trip repr, so equal JSON means equal bits). The pins
cover ``StreamingHistogram.to_state()`` and its reads in the exact
regime, the bucket regime, both kinds of merge and a signed-zero tie;
the ledger record of a monitored run whose one window holds 18,989
latencies (far past the exact cap); and the burn-rate alerts of the
``shard_slowdown`` monitor run on rm2/broadwell. A change to how a
histogram stores its values must leave every digest unchanged.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.ledger import load_rules
from repro.monitor import evaluate_burn_rates
from repro.monitor.scenario import run_monitored_scenario
from repro.telemetry import StreamingHistogram

REPO = Path(__file__).resolve().parents[1]

QUANTILES = (0.0, 1.0, 25.0, 50.0, 95.0, 99.0, 99.9, 100.0)
THRESHOLDS = (0.0, 1e-4, 1e-3, 3e-3, 1.0)


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _view(hist: StreamingHistogram) -> dict:
    """State plus every read, with ``repr`` so the sign of zero counts."""
    snap = hist.snapshot(QUANTILES)
    return {
        "state": hist.to_state(),
        "quantiles": [repr(hist.quantile(q)) for q in QUANTILES],
        "snapshot": [repr(snap.quantiles[q]) for q in QUANTILES],
        "above": [repr(hist.fraction_above(t)) for t in THRESHOLDS],
    }


def _values(seed: int, size: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = rng.lognormal(-7.0, 0.8, size=size)
    values[::7] = values[1]  # duplicates
    return values


def _exact():
    hist = StreamingHistogram()
    hist.observe_each(_values(1, 300))
    return hist


def _bucketed():
    hist = StreamingHistogram(exact_cap=64)
    hist.observe_each(_values(2, 500))
    return hist


def _exact_exact():
    hist = _exact()
    other = StreamingHistogram()
    other.observe_many(_values(3, 120))
    return hist.merge(other)


def _exact_bucket():
    return _exact().merge(_bucketed())


def _bucket_exact():
    return _bucketed().merge(_exact())


def _signed_zero():
    hist = StreamingHistogram()
    for v in (0.0, -0.0, 0.0, 1e-3, -0.0, 2e-3):
        hist.observe(v)
    return hist


HISTOGRAM_PINS = {
    "exact": (
        _exact,
        "3b847b9af729012e32cd61e8b9e0677191e3aa922edb3051807fa30a18385399",
    ),
    "bucket": (
        _bucketed,
        "cd7c4db9fc3345931011facf3034a62a9d1537ba799a36774618d88e1632edda",
    ),
    "exact+exact": (
        _exact_exact,
        "57c4059459c92a229df1ed3f2ad45f5b8c460f72c474680a1101a3198c8571fa",
    ),
    "exact+bucket": (
        _exact_bucket,
        "9bdd252efd1e2d5d7f67d82eb49974a7a6af8d3d77e912be7f18344cf15b69d7",
    ),
    "bucket+exact": (
        _bucket_exact,
        "37a3a2d09355f293050633cb8b2f5464c40635beac85147154d8e6c51bc42cb8",
    ),
    "signed_zero": (
        _signed_zero,
        "1a9cbc96e07c3bfff571d81ce5212378b54f95e82b274572767db3c808b07fcb",
    ),
}


@pytest.mark.parametrize("name", sorted(HISTOGRAM_PINS))
def test_histogram_state_and_reads_pin(name):
    build, digest = HISTOGRAM_PINS[name]
    assert _sha(_view(build())) == digest


def test_past_cap_monitor_ledger_pin(tmp_path, capsys):
    assert main([
        "monitor", "--model", "rm1", "--platform", "t4",
        "--queries", "20000", "--window-ms", "1000",
        "--record-dir", str(tmp_path),
    ]) == 0
    capsys.readouterr()
    ledger = (tmp_path / "ledger.jsonl").read_bytes()
    record = json.loads(ledger)
    cell = record["timeseries"]["tracks"]["latency_s"]["windows"][0][1]
    assert cell[0] == 18989  # one window, far past the exact cap
    assert hashlib.sha256(ledger).hexdigest() == (
        "d64afc8081f9da0de6ea3c11238068ad1dcdf8e1cc0d1f16ff89034f4225beb9"
    )


def test_shard_monitor_burn_rate_alerts_pin():
    ms = run_monitored_scenario(
        "rm2", "broadwell", "shard_slowdown", queries=10000, seed=2020
    )
    rules = load_rules(REPO / "ci" / "burnrate.toml")
    alerts = evaluate_burn_rates(ms.timeseries, rules)
    assert alerts
    payload = [dataclasses.asdict(a) for a in alerts]
    assert _sha(payload) == (
        "a0db2ead33891ece3b3a42f320710f4fd107b392bac8ce52456db1490fb0b387"
    )
