"""The fault injector's straggler tables against the scalar hash.

A :class:`FaultInjector` reads whether an attempt-0 batch straggles
from chunks of :func:`hashed_uniform_array` draws; both are checked
here against the scalar :func:`hashed_uniform`, bit for bit. The window
answers' edge and overlap rules, the shard gather's count gate, and the
boundary checks that keep a NaN out of every fault spec live here too.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.distserve import (
    GatherHedgePolicy,
    PartialGatherPolicy,
    ReplicatedReadPolicy,
)
from repro.distserve.gather import GatherRun
from repro.monitor.scenario import ScenarioRecipe, build_scenario
from repro.resilience import faults
from repro.resilience.faults import (
    CrashWindow,
    DropSpec,
    FaultInjector,
    PcieDegradationWindow,
    ServerFaults,
    SlowdownWindow,
    StragglerSpec,
    hashed_uniform,
    hashed_uniform_array,
)

_STREAM = faults._STREAM_STRAGGLER
_U64 = st.integers(min_value=0, max_value=2**64 - 1)
#: Keys as callers pass them: any Python int, wrapped mod 2**64.
_KEYS = st.integers(min_value=-(2**63), max_value=2**64 - 1)


# -- the scalar straggler draw (the oracle) ---------------------------------


def scan_straggler(spec, seed, name_key, batch_index, attempt=0):
    if spec.probability <= 0.0:
        return 1.0
    if attempt == 0:
        u = hashed_uniform(seed, name_key, _STREAM, batch_index)
    else:
        u = hashed_uniform(seed, name_key, _STREAM, batch_index, 2, attempt)
    if u >= spec.probability:
        return 1.0
    if attempt == 0:
        v = hashed_uniform(seed, name_key, _STREAM, batch_index, 1)
    else:
        v = hashed_uniform(seed, name_key, _STREAM, batch_index, 3, attempt)
    return float(min((1.0 - v) ** (-1.0 / spec.alpha), spec.max_multiplier))


# -- hashed_uniform_array == hashed_uniform --------------------------------


class TestHashedUniformArray:
    @given(st.lists(_KEYS, min_size=1, max_size=6))
    @example([-1, 2**63, 2**64 - 1])
    def test_scalar_keys_bit_equal(self, keys):
        assert float(hashed_uniform_array(*keys)) == hashed_uniform(*keys)

    @given(
        seed=_KEYS, name_key=_U64,
        index=st.lists(_U64, min_size=1, max_size=40),
        attempt=st.integers(min_value=1, max_value=2**20),
    )
    @example(seed=-5, name_key=2**63, index=[0, 2**63, 2**64 - 1], attempt=1)
    def test_straggler_streams_bit_equal(self, seed, name_key, index,
                                         attempt):
        column = np.array(index, dtype=np.uint64)
        four = hashed_uniform_array(seed, name_key, _STREAM, column)
        six = hashed_uniform_array(seed, name_key, _STREAM, column, 2,
                                   attempt)
        assert four.tolist() == [
            hashed_uniform(seed, name_key, _STREAM, i) for i in index
        ]
        assert six.tolist() == [
            hashed_uniform(seed, name_key, _STREAM, i, 2, attempt)
            for i in index
        ]

    @given(
        st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1),
                 min_size=1, max_size=20),
        _KEYS,
    )
    def test_signed_columns_wrap(self, column, key):
        assert hashed_uniform_array(
            key, np.array(column, dtype=np.int64)
        ).tolist() == [hashed_uniform(key, k) for k in column]

    def test_columns_broadcast(self):
        rows = np.arange(3, dtype=np.int64)[:, None]
        cols = np.arange(4, dtype=np.int64)[None, :]
        grid = hashed_uniform_array(7, rows, cols)
        assert grid.shape == (3, 4)
        assert grid[2, 3] == hashed_uniform(7, 2, 3)

    def test_rejects_non_integer_columns(self):
        with pytest.raises(TypeError, match="key_columns"):
            hashed_uniform_array(1, np.array([0.5]))


# -- window answers ------------------------------------------------------------


class TestWindows:
    def test_windows_are_half_open(self):
        before, last = math.nextafter(1.0, -math.inf), math.nextafter(2.0, 0)
        crash = CrashWindow(1.0, 2.0)
        inj = FaultInjector(ServerFaults(
            slowdowns=(SlowdownWindow(1.0, 2.0, 3.0),),
            pcie=(PcieDegradationWindow(1.0, 2.0, 0.5),),
            crashes=(crash,),
        ), 0, "s")
        for t, mult, scale, down in ((before, 1.0, 1.0, None),
                                     (1.0, 3.0, 0.5, crash),
                                     (last, 3.0, 0.5, crash),
                                     (2.0, 1.0, 1.0, None)):
            assert inj.slowdown_multiplier(t) == mult
            assert inj.pcie_scale(t) == scale
            assert inj.crashed_at(t) is down
            assert inj.next_available(t) == (t if down is None else 2.0)
        assert inj.crash_during(0.0, 1.0) is None
        assert inj.crash_during(2.0, 3.0) is None
        assert inj.crash_during(before, math.nextafter(1.0, 2.0)) is crash

    def test_overlapping_windows_multiply_in_list_order(self):
        # 0.7 * 0.3 * 0.1 rounds differently from 0.1 * 0.3 * 0.7.
        windows = [PcieDegradationWindow(0.0, 2.0, 0.7),
                   PcieDegradationWindow(0.5, 2.0, 0.3),
                   PcieDegradationWindow(1.0, 2.0, 0.1)]
        forward = FaultInjector(ServerFaults(pcie=windows), 0, "s")
        reverse = FaultInjector(ServerFaults(pcie=windows[::-1]), 0, "s")
        assert forward.pcie_scale(1.5) == 0.7 * 0.3 * 0.1
        assert reverse.pcie_scale(1.5) == 0.1 * 0.3 * 0.7
        assert forward.pcie_scale(1.5) != reverse.pcie_scale(1.5)

    def test_chained_overlapping_crashes(self):
        # Built without a FaultPlan, so the crash windows may overlap.
        crashes = (CrashWindow(1.0, 3.0), CrashWindow(0.5, 1.5),
                   CrashWindow(2.5, 4.0), CrashWindow(4.0, 4.5))
        inj = FaultInjector(ServerFaults(crashes=crashes), 0, "s")
        assert inj.next_available(1.2) == 4.5
        assert inj.crashed_at(1.2) is crashes[0]
        assert inj.crash_during(1.2, 1.3) is crashes[1]
        assert inj.crash_during(0.0, 0.5) is None
        assert inj.crash_during(0.0, 0.6) is crashes[1]

    def test_crash_during_breaks_start_ties_in_list_order(self):
        crashes = (CrashWindow(1.0, 2.0), CrashWindow(1.0, 3.0))
        for order in (crashes, crashes[::-1]):
            inj = FaultInjector(ServerFaults(crashes=order), 0, "s")
            assert inj.crash_during(0.0, 1.5) is order[0]


class TestStragglerChunks:
    @pytest.mark.parametrize("probability", [0.0, 0.05, 0.5, 1.0])
    def test_equals_scalar_reference(self, probability):
        spec = StragglerSpec(probability=probability, alpha=1.5,
                             max_multiplier=9.0)
        inj = FaultInjector(ServerFaults(stragglers=spec), -7, "shard-2")
        name_key = inj._name_key
        # Chunk edges, a chunk far out, and negative indices.
        indices = list(range(0, 2100)) + [2**40 + 3, -1, -1025]
        for i in indices:
            assert inj.straggler_multiplier(i) == scan_straggler(
                spec, -7, name_key, i
            )
        for attempt in (1, 2, 11, 101):
            for i in range(0, 300):
                assert inj.straggler_multiplier(i, attempt) == (
                    scan_straggler(spec, -7, name_key, i, attempt)
                )

    def test_chunks_are_compact(self):
        spec = StragglerSpec(probability=0.05)
        inj = FaultInjector(ServerFaults(stragglers=spec), 1, "s")
        for i in range(3000):
            inj.straggler_multiplier(i)
        chunks = inj._straggler_hits
        assert sorted(chunks) == [0, 1, 2]
        assert all(isinstance(c, bytes) and len(c) == 1024
                   for c in chunks.values())


def test_gather_hashes_only_straggler_hits(monkeypatch):
    """On a ``GatherPolicy.none()`` run, the gather makes one scalar
    draw per attempt-0 straggler hit (its Pareto tail) and none for
    the RPCs that do not straggle."""
    scalar_draws = {"inside": False, "n": 0}
    real_hash = faults.hashed_uniform
    real_gather = GatherRun.gather

    def counting_hash(*keys):
        if scalar_draws["inside"]:
            scalar_draws["n"] += 1
        return real_hash(*keys)

    def gather(self, *args, **kwargs):
        scalar_draws["inside"] = True
        try:
            return real_gather(self, *args, **kwargs)
        finally:
            scalar_draws["inside"] = False

    monkeypatch.setattr(faults, "hashed_uniform", counting_hash)
    monkeypatch.setattr(GatherRun, "gather", gather)
    setup = build_scenario(
        ScenarioRecipe("rm2", "broadwell", "shard_slowdown", queries=4000)
    )
    assert setup.gather.policy.empty
    result = setup.scheduler(setup.policy).run(setup.qps, setup.queries)
    counts = result.gather_counts
    assert counts["straggler_rpcs"] > 0
    assert scalar_draws["n"] == counts["straggler_rpcs"]
    assert counts["fanout_rpcs"] > 10 * counts["straggler_rpcs"]


# -- boundary checks -----------------------------------------------------------

_NAN = float("nan")


@pytest.mark.parametrize(
    "build, error, name",
    [
        (lambda: StragglerSpec(alpha=_NAN), ValueError, "alpha"),
        (lambda: StragglerSpec(alpha=math.inf), ValueError, "alpha"),
        (lambda: StragglerSpec(max_multiplier=_NAN), ValueError,
         "max_multiplier"),
        (lambda: StragglerSpec("0.1"), TypeError, "probability"),
        (lambda: StragglerSpec(probability=_NAN), ValueError, "probability"),
        (lambda: DropSpec(True), TypeError, "probability"),
        (lambda: DropSpec(_NAN), ValueError, "probability"),
        (lambda: SlowdownWindow(0, 1, _NAN), ValueError, "multiplier"),
        (lambda: SlowdownWindow(0, 1, math.inf), ValueError,
         "multiplier: .* finite"),
        (lambda: SlowdownWindow(_NAN, 1), ValueError, "start_s"),
        (lambda: CrashWindow(0.001, math.inf), ValueError, "end_s"),
        (lambda: PcieDegradationWindow(0, math.inf), ValueError,
         "end_s must be finite"),
        (lambda: SlowdownWindow(0, "1"), TypeError, "end_s"),
        (lambda: PcieDegradationWindow(0, 1, "x"), TypeError,
         "bandwidth_scale"),
        (lambda: GatherHedgePolicy(_NAN), ValueError, "delay_s"),
        (lambda: GatherHedgePolicy(math.inf), ValueError, "delay_s"),
        (lambda: PartialGatherPolicy(wait_budget_s=_NAN), ValueError,
         "wait_budget_s"),
        (lambda: ReplicatedReadPolicy(replicas=2.5), TypeError, "replicas"),
        (lambda: ReplicatedReadPolicy(quorum=True), TypeError, "quorum"),
    ],
)
def test_bad_input_rejected_naming_the_argument(build, error, name):
    with pytest.raises(error, match=name):
        build()
