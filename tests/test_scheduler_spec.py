"""Ground-truth behaviour of the serving engines, checked against theory.

``SchedulerSpec`` states what any dynamic-batching server must do,
without comparing one engine to another: the M/D/1 mean wait of
Pollaczek–Khinchine, the batch cap, latency at least the service time,
and start-time bounds (no batch starts before its last member arrives
or the server frees, and none starts later than its head's timeout or
the previous finish). One subclass per engine runs every check: the
plain ``QueryScheduler`` and a single-replica, fault-free
``ResilientScheduler``.
"""

import numpy as np
import pytest

from repro.models import build_model
from repro.monitor.scenario import service_model_for
from repro.resilience import Replica, ResilientScheduler
from repro.runtime import BatchingPolicy, QueryScheduler

#: Float slack, in ulps of the latest finish time. Finish and start are
#: recovered from ``arrival + latency`` and ``finish - service``; each
#: step rounds once at the magnitude of the clock.
ULPS = 8


@pytest.fixture(scope="module")
def rm1_t4():
    return service_model_for(build_model("rm1"), "t4", 64)


class SchedulerSpec:
    """Checks any engine must pass; subclasses provide :meth:`engine`."""

    def engine(self, service_model, policy, seed):
        raise NotImplementedError

    def _run(self, stm, policy, load, n, seed=5):
        peak = policy.max_batch / stm.seconds(policy.max_batch)
        qps = peak * load
        result = self.engine(stm, policy, seed).run(qps, n)
        # The arrival process both engines draw: Poisson at `qps` from
        # a fresh generator seeded with `seed`.
        gaps = np.random.default_rng(seed).exponential(1.0 / qps, size=n)
        return result, np.cumsum(gaps)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.8])
    def test_md1_mean_wait_matches_pollaczek_khinchine(self, rm1_t4, rho):
        """max_batch=1, no timeout: an M/D/1 queue. Its mean wait is
        ρS/(2(1−ρ)). The bound is 4 standard errors of the batch-means
        estimate over 20 blocks of 5000 queries; blocks are far longer
        than the queue's relaxation time (under 100 S at ρ ≤ 0.8), so
        block means are close to independent."""
        policy = BatchingPolicy(max_batch=1, batch_timeout_s=0.0)
        service = rm1_t4.seconds(1)
        n, blocks = 100_000, 20
        result, _ = self._run(rm1_t4, policy, rho, n)
        waits = result.latencies_s - service
        block_means = waits.reshape(blocks, -1).mean(axis=1)
        stderr = block_means.std(ddof=1) / np.sqrt(blocks)
        expected = rho * service / (2.0 * (1.0 - rho))
        assert abs(waits.mean() - expected) <= 4.0 * stderr
        # The bound is tight enough to mean something: under 15% of W.
        assert 4.0 * stderr < 0.15 * expected

    @pytest.mark.parametrize("max_batch", [1, 7, 64])
    @pytest.mark.parametrize("timeout", [0.0, 0.002])
    @pytest.mark.parametrize("load", [0.3, 0.95, 1.2])
    def test_batch_invariants(self, rm1_t4, max_batch, timeout, load):
        policy = BatchingPolicy(max_batch=max_batch, batch_timeout_s=timeout)
        result, arrivals = self._run(rm1_t4, policy, load, 4000)
        sizes = np.asarray(result.batch_sizes)
        latencies = result.latencies_s
        assert sizes.sum() == len(arrivals) == len(latencies)
        assert sizes.min() >= 1 and sizes.max() <= max_batch

        heads = np.cumsum(sizes) - sizes
        lasts = heads + sizes - 1
        service = np.array([rm1_t4.seconds(int(b)) for b in sizes])
        finishes = arrivals[heads] + latencies[heads]
        tol = ULPS * np.finfo(float).eps * finishes.max()
        # Every member of a batch finishes with it.
        member_finish = arrivals + latencies
        assert np.all(
            np.abs(member_finish - np.repeat(finishes, sizes)) <= tol
        )
        # Latency is at least the service time of the query's batch.
        assert np.all(latencies >= np.repeat(service, sizes) - tol)

        starts = finishes - service
        previous = np.concatenate(([0.0], finishes[:-1]))
        # No batch starts before its last member arrives or before the
        # server frees...
        assert np.all(starts >= np.maximum(arrivals[lasts], previous) - tol)
        # ...and none starts later than its head's timeout or the
        # previous finish, whichever is later.
        assert np.all(
            starts <= np.maximum(arrivals[heads] + timeout, previous) + tol
        )


class TestPlainSchedulerSpec(SchedulerSpec):
    def engine(self, service_model, policy, seed):
        return QueryScheduler(service_model, policy, seed=seed)


class TestResilientSchedulerSpec(SchedulerSpec):
    def engine(self, service_model, policy, seed):
        return ResilientScheduler(
            [Replica(service_model.platform, service_model)], policy,
            seed=seed,
        )
