"""Determinism guarantees of :class:`repro.parallel.TrialRunner`.

A trial is a pure function of its payload: the payload carries the trial's
seed, so the runner promises bit-identical per-trial results regardless of
worker count or the order in which batches are submitted.
"""

import hashlib

import numpy as np
import pytest

from repro.core.regimes import NetworkParameters
from repro.experiments.scaling import sweep_capacity
from repro.parallel import TrialRunner
from repro.resilience import RetryPolicy
from repro.store import TrialSeed


def _draw_trial(payload):
    """Deterministic function of the payload and its own seed."""
    scale, size, seed = payload
    return (scale * seed.rng().random(size)).tolist()


def _draw_batch(payloads):
    return [_draw_trial(payload) for payload in payloads]


def _sum_trial(payload):
    offset, seed = payload
    return float(seed.rng().random(64).sum()) + offset


def _draw_payloads(seed, count=12, size=5):
    return [(float(i + 1), size, TrialSeed(seed, i)) for i in range(count)]


class TestWorkerCountInvariance:
    PAYLOADS = _draw_payloads(99)

    def _values(self, workers):
        runner = TrialRunner(_draw_trial, workers=workers)
        results = runner.run(self.PAYLOADS)
        assert all(result.ok for result in results)
        assert [result.index for result in results] == list(range(len(self.PAYLOADS)))
        return [result.value for result in results]

    def test_inline_one_and_four_workers_identical(self):
        inline = self._values(None)
        one = self._values(1)
        four = self._values(4)
        assert inline == one == four

    def test_shuffled_batch_order_identical(self):
        """Batches are submitted in the given order; results come back by
        trial index with the same values."""
        baseline = self._values(None)
        order = np.random.default_rng(3).permutation(len(self.PAYLOADS))
        batches = [(int(i),) for i in order]
        results = TrialRunner(_draw_trial, workers=4).run_batched(
            self.PAYLOADS, _draw_batch, batches
        )
        assert [result.value for result in results] == baseline

    @pytest.mark.parametrize(
        "batches", [[(0,), (0,), (1,)], [(0, 1)], [(0, 1, 2, 3)]], ids=str
    )
    def test_batches_must_partition_the_indices(self, batches):
        with pytest.raises(ValueError, match="partition"):
            TrialRunner(_draw_trial).run_batched(
                self.PAYLOADS[:3], _draw_batch, batches
            )

    def test_different_payload_seeds_differ(self):
        runner = TrialRunner(_draw_trial)
        a = runner.run(_draw_payloads(1))
        b = runner.run(_draw_payloads(2))
        assert [r.value for r in a] != [r.value for r in b]


class TestSeedStability:
    """Regression pin: the per-trial streams must never silently change.

    The digest fixes the exact bytes drawn by ``TrialSeed(1234, 0)``.  It
    breaks if the seed derivation (the ``SeedSequence`` spawn-key chain,
    the PCG64 bit generator, or the index-to-child mapping) changes -- any
    of which would invalidate every recorded experiment seed.
    """

    EXPECTED_DIGEST = "a0d45320940c82d2172fba97653448237140aed2c5a31c41ddd62482d5ae8ec9"

    def test_known_digest(self):
        runner = TrialRunner(_draw_trial)
        results = runner.run(_draw_payloads(1234, count=3, size=16))
        payload_bytes = np.asarray(results[0].value, dtype=np.float64).tobytes()
        assert hashlib.sha256(payload_bytes).hexdigest() == self.EXPECTED_DIGEST

    def test_pooled_trials_draw_the_spawned_streams(self):
        """``TrialSeed(seed, i)`` in a pool worker draws exactly
        ``SeedSequence(seed).spawn(n)[i]``."""
        payloads = [(1.0, 4, TrialSeed(77, i)) for i in range(5)]
        results = TrialRunner(_draw_trial, workers=2).run(payloads)
        children = np.random.SeedSequence(77).spawn(5)
        for index, result in enumerate(results):
            expected = np.random.default_rng(children[index]).random(4).tolist()
            assert result.value == expected


class TestRunValuesAndStats:
    def test_run_values_unwraps_in_index_order(self):
        payloads = [(10.0 * (i + 1), TrialSeed(5, i)) for i in range(3)]
        values = TrialRunner(_sum_trial, workers=2).run_values(payloads)
        inline = TrialRunner(_sum_trial).run_values(payloads)
        assert values == inline
        assert values[0] < values[1] < values[2]

    def test_stats_counters(self):
        runner = TrialRunner(_sum_trial, workers=2)
        runner.run([(1.0, TrialSeed(0, i)) for i in range(6)])
        stats = runner.last_stats
        assert stats.trials == 6
        assert stats.failures == 0
        assert stats.retries == 0
        assert stats.elapsed_seconds > 0
        assert stats.trials_per_second > 0
        assert "2 workers" in stats.summary()

    def test_empty_payloads(self):
        runner = TrialRunner(_sum_trial)
        assert runner.run([]) == []
        assert runner.last_stats.trials == 0

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            TrialRunner(_sum_trial, workers=-1)
        with pytest.raises(ValueError):
            TrialRunner(_sum_trial, retry_policy=RetryPolicy(max_attempts=0))

    def test_resolve_workers(self):
        assert TrialRunner.resolve_workers(None) is None
        assert TrialRunner.resolve_workers(3) == 3
        assert TrialRunner.resolve_workers(0) >= 1


class TestSweepParallelEquivalence:
    """The end-to-end guarantee: a parallel sweep equals the serial sweep."""

    def test_sweep_rates_identical_at_any_worker_count(self):
        params = NetworkParameters(alpha="1/4", cluster_exponent=1)
        serial = sweep_capacity(
            params, [100, 200], scheme="A", trials=2, seed=11
        )
        parallel = sweep_capacity(
            params, [100, 200], scheme="A", trials=2, seed=11, workers=2
        )
        np.testing.assert_array_equal(serial.rates, parallel.rates)
        assert parallel.stats is not None
        assert parallel.stats.trials == 4
