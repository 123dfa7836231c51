"""Batched trial execution: ``TrialRunner.run_batched``.

The contract under test: batching is an execution detail.  Every member
trial computes its value from its own payload's seed, exactly as a serial
:meth:`TrialRunner.run` would, so per-trial values are identical; a batch
is the unit of retry and failure, scattered per member.
"""

import pytest

from repro.parallel import TrialRunner
from repro.resilience import RetryPolicy
from repro.store import TrialSeed


def _trial(payload):
    return float(payload["seed"].rng().random()) + float(payload["offset"])


def _batch(members):
    return [_trial(payload) for payload in members]


def _batch_short(members):
    return _batch(members)[:-1] if len(members) > 1 else [None]


def _batch_boom(members):
    raise RuntimeError("flow kernel exploded")


def payloads_for(offsets, seed=42):
    return [
        {"offset": offset, "seed": TrialSeed(seed, index)}
        for index, offset in enumerate(offsets)
    ]


class TestRunBatched:
    def run_both(self, offsets, batches, **kwargs):
        payloads = payloads_for(offsets)
        serial = TrialRunner(_trial).run(payloads)
        batched = TrialRunner(_trial, **kwargs).run_batched(payloads, _batch, batches)
        return serial, batched

    def test_values_identical_to_serial_run(self):
        serial, batched = self.run_both(
            [1, 2, 1, 2, 1, 1, 2], [(0, 2, 4), (1, 3), (5,), (6,)]
        )
        assert [r.value for r in batched] == [r.value for r in serial]
        assert all(r.ok for r in batched)
        assert [r.index for r in batched] == list(range(7))

    def test_batches_in_any_order_still_match(self):
        serial, batched = self.run_both([-1, 5, -1, 5], [[3, 1], [2], [0]])
        assert [r.value for r in batched] == [r.value for r in serial]

    @pytest.mark.parametrize(
        "batches", [[(0, 1)], [(0, 1), (1, 2)], [(0, 1, 2), (3,)]], ids=str
    )
    def test_batches_must_partition_the_payloads(self, batches):
        with pytest.raises(ValueError, match="partition"):
            TrialRunner(_trial).run_batched(payloads_for([1, 1, 1]), _batch, batches)

    def test_cache_hits_skip_the_batch(self):
        payloads = payloads_for([1, 1, 1, 1], seed=7)
        batches = [(0, 1, 2, 3)]
        runner = TrialRunner(_trial)
        fresh = runner.run_batched(payloads, _batch, batches)

        class DictCache:
            def __init__(self):
                self.data = {}
                self.puts = []

            def get(self, key):
                return self.data.get(key)

            def put(self, key, value, duration):
                self.puts.append(key)

        class Hit:
            def __init__(self, value):
                self.value = value
                self.duration = 0.5

        cache = DictCache()
        cache.data["k1"] = Hit("cached-one")
        keys = ["k0", "k1", "k2", "k3"]
        mixed = runner.run_batched(payloads, _batch, batches, cache=cache, keys=keys)
        assert mixed[1].cached and mixed[1].value == "cached-one"
        # the other members still run on their own payloads' seeds
        for index in (0, 2, 3):
            assert mixed[index].value == fresh[index].value
            assert not mixed[index].cached
        # fresh member values were journaled individually
        assert sorted(cache.puts) == ["k0", "k2", "k3"]
        stats = runner.last_stats
        assert stats.trials == 4 and stats.cache_hits == 1

    def test_batch_failure_scatters_per_member(self):
        payloads = payloads_for([1, 1, 1])
        runner = TrialRunner(_trial, retry_policy=RetryPolicy(max_attempts=1))
        results = runner.run_batched(payloads, _batch_boom, [(0, 1, 2)])
        assert all(not r.ok for r in results)
        for result in results:
            assert result.error.trial_index == result.index
            assert result.error.kind == "exception"
            assert "batch of 3:" in result.error.message
            assert "flow kernel exploded" in result.error.message
        assert TrialRunner(_trial).last_stats is None  # new instance untouched

    def test_wrong_length_return_is_invalid_result(self):
        payloads = payloads_for([1, 1])
        runner = TrialRunner(_trial, retry_policy=RetryPolicy(max_attempts=1))
        results = runner.run_batched(payloads, _batch_short, [(0, 1)])
        assert all(not r.ok for r in results)
        assert all(r.error.kind == "invalid_result" for r in results)
        assert "instead of 2 member value(s)" in results[0].error.message

    def test_validator_applies_per_member(self):
        payloads = payloads_for([1, 10, 1, 10])
        runner = TrialRunner(
            _trial,
            validator=lambda value: "too big" if value > 5 else None,
        )
        results = runner.run_batched(payloads, _batch, [(0, 1, 2, 3)])
        assert [r.ok for r in results] == [True, False, True, False]
        assert results[1].error.kind == "invalid_result"
        assert results[1].error.message == "too big"
        assert runner.last_stats.failures == 2

    def test_durations_split_evenly(self):
        payloads = payloads_for([1, 1, 1])
        results = TrialRunner(_trial).run_batched(payloads, _batch, [(0, 1, 2)])
        durations = {r.duration for r in results}
        assert len(durations) == 1  # one batch, evenly split

    def test_empty_payloads(self):
        runner = TrialRunner(_trial)
        assert runner.run_batched([], _batch, []) == []
        assert runner.last_stats.trials == 0

    def test_worker_pool_matches_inline(self):
        payloads = payloads_for([1, 2, 1, 2, 1], seed=3)
        batches = [(0, 2), (4,), (1, 3)]
        inline = TrialRunner(_trial).run_batched(payloads, _batch, batches)
        pooled = TrialRunner(_trial, workers=2).run_batched(payloads, _batch, batches)
        assert [r.value for r in pooled] == [r.value for r in inline]
