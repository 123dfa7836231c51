"""Batched trial execution: plan grouping and ``TrialRunner.run_batched``.

The contract under test: batching is an execution detail.  Every member
trial receives the same full-count-spawned ``SeedSequence`` a serial
:meth:`TrialRunner.run` would hand it, so per-trial values are identical;
a batch is the unit of retry and failure, scattered per member.
"""

import numpy as np
import pytest

from repro.parallel import BatchedTrialPlan, TrialBatch, TrialRunner
from repro.resilience import RetryPolicy


def _trial(rng, payload):
    return float(rng.random()) + float(payload["offset"])


def _batch(seed_seqs, members):
    return [
        _trial(np.random.default_rng(seq), payload)
        for seq, payload in zip(seed_seqs, members)
    ]


def _batch_short(seed_seqs, members):
    return _batch(seed_seqs, members)[:-1] if len(members) > 1 else [None]


def _batch_boom(seed_seqs, members):
    raise RuntimeError("flow kernel exploded")


def payloads_for(offsets):
    return [{"offset": offset} for offset in offsets]


def shape_key(payload):
    return payload["offset"] if payload["offset"] >= 0 else None


class TestBatchedTrialPlan:
    def test_groups_and_chunks(self):
        plan = BatchedTrialPlan.group(
            payloads_for([1, 1, 1, 1, 1]), shape_key, batch_trials=2
        )
        assert [batch.width for batch in plan.batches] == [2, 2, 1]
        assert plan.trial_count == 5
        assert plan.max_width == 2
        assert plan.covers(5)
        assert not plan.covers(6)

    def test_interleaved_keys_keep_trial_order_within_batches(self):
        plan = BatchedTrialPlan.group(
            payloads_for([1, 2, 1, 2, 1]), shape_key, batch_trials=8
        )
        assert {batch.shape_key: batch.indices for batch in plan.batches} == {
            1: (0, 2, 4),
            2: (1, 3),
        }
        # batches are ordered by their first member index
        assert [batch.shape_key for batch in plan.batches] == [1, 2]

    def test_none_key_gets_singletons(self):
        plan = BatchedTrialPlan.group(
            payloads_for([-1, 3, -1, 3]), shape_key, batch_trials=4
        )
        widths = {batch.indices: batch.width for batch in plan.batches}
        assert widths == {(0,): 1, (2,): 1, (1, 3): 2}

    def test_rejects_nonpositive_batch_trials(self):
        with pytest.raises(ValueError, match="batch_trials"):
            BatchedTrialPlan.group([], shape_key, batch_trials=0)

    def test_empty_plan(self):
        plan = BatchedTrialPlan.group([], shape_key, batch_trials=3)
        assert plan.batches == ()
        assert plan.max_width == 0
        assert plan.covers(0)


class TestRunBatched:
    def run_both(self, offsets, batch_trials=3, seed=42, **kwargs):
        payloads = payloads_for(offsets)
        plan = BatchedTrialPlan.group(payloads, shape_key, batch_trials)
        serial = TrialRunner(_trial).run(payloads, seed=seed)
        batched = TrialRunner(_trial, **kwargs).run_batched(
            payloads, _batch, plan, seed=seed
        )
        return serial, batched

    def test_values_identical_to_serial_run(self):
        serial, batched = self.run_both([1, 2, 1, 2, 1, 1, 2])
        assert [r.value for r in batched] == [r.value for r in serial]
        assert all(r.ok for r in batched)
        assert [r.index for r in batched] == list(range(7))

    def test_unbatchable_singletons_still_match(self):
        serial, batched = self.run_both([-1, 5, -1, 5])
        assert [r.value for r in batched] == [r.value for r in serial]

    def test_plan_must_cover_payloads(self):
        payloads = payloads_for([1, 1, 1])
        plan = BatchedTrialPlan.group(payloads[:2], shape_key, 2)
        with pytest.raises(ValueError, match="partition"):
            TrialRunner(_trial).run_batched(payloads, _batch, plan)

    def test_plan_type_checked(self):
        with pytest.raises(TypeError, match="BatchedTrialPlan"):
            TrialRunner(_trial).run_batched(
                payloads_for([1]), _batch, plan=object()
            )

    def test_cache_hits_skip_the_batch(self):
        payloads = payloads_for([1, 1, 1, 1])
        plan = BatchedTrialPlan.group(payloads, shape_key, 4)
        runner = TrialRunner(_trial)
        fresh = runner.run_batched(payloads, _batch, plan, seed=7)

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
        mixed = runner.run_batched(payloads, _batch, plan, seed=7, cache=cache, keys=keys)
        assert mixed[1].cached and mixed[1].value == "cached-one"
        # the other members still get their full-count-spawned seeds
        for index in (0, 2, 3):
            assert mixed[index].value == fresh[index].value
            assert not mixed[index].cached
        # fresh member values were journaled individually
        assert sorted(cache.puts) == ["k0", "k2", "k3"]
        stats = runner.last_stats
        assert stats.trials == 4 and stats.cache_hits == 1

    def test_batch_failure_scatters_per_member(self):
        payloads = payloads_for([1, 1, 1])
        plan = BatchedTrialPlan.group(payloads, shape_key, 3)
        runner = TrialRunner(_trial, retry_policy=RetryPolicy(max_attempts=1))
        results = runner.run_batched(payloads, _batch_boom, plan)
        assert all(not r.ok for r in results)
        for result in results:
            assert result.error.trial_index == result.index
            assert result.error.kind == "exception"
            assert "batch of 3:" in result.error.message
            assert "flow kernel exploded" in result.error.message
        assert TrialRunner(_trial).last_stats is None  # new instance untouched

    def test_wrong_length_return_is_invalid_result(self):
        payloads = payloads_for([1, 1])
        plan = BatchedTrialPlan.group(payloads, shape_key, 2)
        runner = TrialRunner(_trial, retry_policy=RetryPolicy(max_attempts=1))
        results = runner.run_batched(payloads, _batch_short, plan)
        assert all(not r.ok for r in results)
        assert all(r.error.kind == "invalid_result" for r in results)
        assert "instead of 2 member value(s)" in results[0].error.message

    def test_validator_applies_per_member(self):
        payloads = payloads_for([1, 10, 1, 10])
        plan = BatchedTrialPlan.group(payloads, shape_key, 4)
        runner = TrialRunner(
            _trial,
            validator=lambda value: "too big" if value > 5 else None,
        )
        results = runner.run_batched(payloads, _batch, plan)
        assert [r.ok for r in results] == [True, False, True, False]
        assert results[1].error.kind == "invalid_result"
        assert results[1].error.message == "too big"
        assert runner.last_stats.failures == 2

    def test_durations_split_evenly(self):
        payloads = payloads_for([1, 1, 1])
        plan = BatchedTrialPlan.group(payloads, shape_key, 3)
        results = TrialRunner(_trial).run_batched(payloads, _batch, plan)
        durations = {r.duration for r in results}
        assert len(durations) == 1  # one batch, evenly split

    def test_empty_payloads(self):
        runner = TrialRunner(_trial)
        plan = BatchedTrialPlan.group([], shape_key, 2)
        assert runner.run_batched([], _batch, plan) == []
        assert runner.last_stats.trials == 0

    def test_worker_pool_matches_inline(self):
        payloads = payloads_for([1, 2, 1, 2, 1])
        plan = BatchedTrialPlan.group(payloads, shape_key, 2)
        inline = TrialRunner(_trial).run_batched(payloads, _batch, plan, seed=3)
        pooled = TrialRunner(_trial, workers=2).run_batched(
            payloads, _batch, plan, seed=3
        )
        assert [r.value for r in pooled] == [r.value for r in inline]
