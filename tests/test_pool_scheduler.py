"""The process pool as the one trial scheduler.

:class:`repro.parallel.TrialRunner` runs every trial either inline or over
its own :class:`~concurrent.futures.ProcessPoolExecutor`; there is no other
scheduler.  These tests pin what that scheduler owes a sweep:

- scheduling never touches science: every trial's value is a function of
  the seed its payload carries, checked here against an oracle that
  spawns the seeds by hand, at any worker count, batch order, batch width
  and cache state;
- the pool keeps the only crash ledger: a trial is quarantined only after
  ``QUARANTINE_CRASHES`` crashes, a crash is charged to every member of the
  batch that was in flight, and a single crash is healed on a rebuilt pool;
- a sweep that fails for good records a ``partial`` manifest whose missing
  trials a later run executes, and manifests group across worker counts;
- the options of the removed second scheduler are gone from the API.
"""

import re

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.regimes import NetworkParameters
from repro.experiments.scaling import sweep_capacity
from repro.observability import DegradedToSerial, PoolRebuilt, RecordingTelemetry
from repro.parallel import TrialRunner
from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy
from repro.resilience.faults import FAULT_KINDS
from repro.store import RunStore, TrialSeed

SEED = 17
PAYLOADS = [(float(i), TrialSeed(SEED, i)) for i in range(8)]


def _trial(payload):
    offset, seed = payload
    return float(seed.rng().random()) + offset


def _batch(payloads):
    return [_trial(payload) for payload in payloads]


def _slow_first_trial(payload):
    # trial 0 finishes last on a two-worker pool
    import time

    time.sleep(0.3 if payload[0] == 0.0 else 0.0)
    return _trial(payload)


def _oracle(payloads=PAYLOADS):
    """Per-trial values computed without the runner or ``TrialSeed``."""
    seeds = np.random.SeedSequence(SEED).spawn(len(payloads))
    return [
        float(np.random.default_rng(seq).random()) + offset
        for seq, (offset, _seed) in zip(seeds, payloads)
    ]


def _chunks(count, width):
    """Consecutive index batches of at most ``width`` members."""
    return [tuple(range(lo, min(lo + width, count))) for lo in range(0, count, width)]


def _runner_class(**attributes):
    return type("ConfiguredRunner", (TrialRunner,), attributes)


class _Hit:
    def __init__(self, value):
        self.value = value
        self.duration = 0.0


class _DictCache:
    def __init__(self, entries=None):
        self.entries = dict(entries or {})
        self.puts = []

    def get(self, key):
        return _Hit(self.entries[key]) if key in self.entries else None

    def put(self, key, value, duration):
        self.puts.append(key)
        self.entries[key] = value


ORDERS = {
    "identity": list(range(8)),
    "reversed": list(range(7, -1, -1)),
    "evens-first": [0, 2, 4, 6, 1, 3, 5, 7],
}


class TestSchedulingNeverTouchesValues:
    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_run_matches_hand_spawned_seeds(self, workers):
        runner = TrialRunner(_trial, workers=workers)
        results = runner.run(PAYLOADS)
        assert [result.index for result in results] == list(range(8))
        assert [result.value for result in results] == _oracle()
        assert all(result.attempts == 1 for result in results)

    @pytest.mark.parametrize("order", sorted(ORDERS))
    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_batch_order_never_changes_values(self, workers, order):
        runner = TrialRunner(_trial, workers=workers)
        batches = [(index,) for index in ORDERS[order]]
        results = runner.run_batched(PAYLOADS, _batch, batches)
        assert [result.index for result in results] == list(range(8))
        assert [result.value for result in results] == _oracle()

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_run_batched_matches_hand_spawned_seeds(self, workers, width):
        runner = TrialRunner(_trial, workers=workers)
        results = runner.run_batched(PAYLOADS, _batch, _chunks(8, width))
        assert [result.value for result in results] == _oracle()
        assert runner.last_stats.trials == 8
        assert runner.last_stats.failures == 0

    def test_results_are_ordered_by_index_not_completion(self):
        runner = TrialRunner(_slow_first_trial, workers=2)
        results = runner.run(PAYLOADS)
        assert [result.index for result in results] == list(range(8))
        assert [result.value for result in results] == _oracle()

    @pytest.mark.parametrize("hits", [(0,), (1, 3), (0, 2, 4, 5)])
    def test_cache_hits_inside_batches_keep_the_other_members_seeds(self, hits):
        """A hit removes its member from the batch; the members left run
        on their own payloads' seeds, whatever their new positions."""
        keys = [f"k{index}" for index in range(8)]
        cache = _DictCache({keys[index]: -1.0 - index for index in hits})
        runner = TrialRunner(_trial, workers=2)
        results = runner.run_batched(
            PAYLOADS, _batch, _chunks(8, 4), cache=cache, keys=keys
        )
        oracle = _oracle()
        for result in results:
            if result.index in hits:
                assert result.cached and result.attempts == 0
                assert result.value == -1.0 - result.index
            else:
                assert not result.cached and result.attempts == 1
                assert result.value == oracle[result.index]
        assert sorted(cache.puts) == sorted(
            keys[index] for index in range(8) if index not in hits
        )
        assert runner.last_stats.cache_hits == len(hits)


class TestCrashLedger:
    def test_single_crash_heals_on_a_rebuilt_pool_without_degrading(self):
        sink = RecordingTelemetry()
        runner = _runner_class(CHUNK_SIZE=1)(
            _trial,
            workers=1,
            telemetry=sink,
            fault_plan=FaultPlan.parse("kill@0"),
        )
        results = runner.run(PAYLOADS)
        assert [result.value for result in results] == _oracle()
        assert results[0].attempts == 2
        assert runner.last_stats.pool_rebuilds == 1
        assert not runner.last_stats.degraded
        assert len(sink.of_type(PoolRebuilt)) == 1
        assert sink.of_type(DegradedToSerial) == []

    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_quarantine_needs_quarantine_crashes(self, threshold):
        """One crash, one allowed rebuild: the storm is declared at once.
        The crashed trial is quarantined only if one crash reaches the
        threshold; otherwise it runs inline with everything else."""
        sink = RecordingTelemetry()
        runner = _runner_class(
            CHUNK_SIZE=1,
            QUARANTINE_CRASHES=threshold,
            MAX_REBUILDS=1,
            REBUILD_WINDOW_SECONDS=3600.0,
        )(
            _trial,
            workers=1,
            telemetry=sink,
            fault_plan=FaultPlan.parse("kill@0"),
        )
        results = runner.run(PAYLOADS)
        assert runner.last_stats.degraded
        oracle = _oracle()
        assert [result.value for result in results[1:]] == oracle[1:]
        (degraded,) = sink.of_type(DegradedToSerial)
        if threshold == 1:
            assert results[0].error.kind == "quarantined"
            assert results[0].error.message.startswith("payload crashed 1 worker(s)")
            assert degraded.quarantined == (0,)
        else:
            assert results[0].ok and results[0].value == oracle[0]
            assert results[0].attempts == 2
            assert degraded.quarantined == ()

    def test_crash_is_charged_to_every_member_of_the_batch(self):
        """Trial 0 kills its worker on every attempt; its batch mate 1
        shares each crash and is quarantined with it, while the other
        batch completes on the pool."""
        sink = RecordingTelemetry()
        runner = _runner_class(
            CHUNK_SIZE=1, MAX_REBUILDS=2, REBUILD_WINDOW_SECONDS=3600.0
        )(
            _trial,
            workers=1,
            telemetry=sink,
            fault_plan=FaultPlan.parse("kill@0x99"),
            retry_policy=RetryPolicy(max_attempts=10),
        )
        payloads = PAYLOADS[:4]
        results = runner.run_batched(payloads, _batch, _chunks(4, 2))
        assert [result.error.kind for result in results[:2]] == [
            "quarantined",
            "quarantined",
        ]
        assert [result.value for result in results[2:]] == _oracle(payloads)[2:]
        assert runner.last_stats.pool_rebuilds == 2
        (degraded,) = sink.of_type(DegradedToSerial)
        assert degraded.quarantined == (0, 1)


PARAMS = NetworkParameters(alpha="1/4", cluster_exponent=1)
GRID = [60, 120]


def _sweep(**kwargs):
    return sweep_capacity(PARAMS, GRID, scheme="A", trials=2, seed=3, **kwargs)


def _poisoned(min_success_fraction=0.5):
    return ResilienceConfig(
        retry=RetryPolicy(max_attempts=2),
        fault_plan=FaultPlan.parse("raise@0x9"),
        min_success_fraction=min_success_fraction,
    )


class TestSweepRecords:
    def test_manifest_config_records_no_executor(self, tmp_path):
        _sweep(store=tmp_path / "s", workers=2)
        (manifest,) = RunStore(tmp_path / "s").list_runs()
        assert set(manifest["config"]) == {
            "scheme",
            "n_values",
            "trials",
            "seed",
            "build_kwargs",
            "generic",
            "workers",
            "batch_trials",
        }
        assert manifest["config"]["workers"] == 2

    @pytest.mark.parametrize("workers", [None, 2])
    def test_trial_failing_for_good_records_a_partial_manifest(
        self, tmp_path, workers
    ):
        result = _sweep(store=tmp_path / "s", workers=workers, resilience=_poisoned())
        assert result.stats.failures == 1
        assert result.stats.retries == 1
        (manifest,) = RunStore(tmp_path / "s").list_runs()
        assert manifest["status"] == "partial"
        assert manifest["digest"] == result.digest()

    def test_partial_sweep_resumes_to_the_clean_digest(self, tmp_path):
        _sweep(store=tmp_path / "s", workers=2, resilience=_poisoned())
        resumed = _sweep(store=tmp_path / "s", workers=2)
        assert resumed.stats.cache_hits == 3
        assert resumed.stats.cache_misses == 1
        assert resumed.digest() == _sweep().digest()
        newest = RunStore(tmp_path / "s").list_runs()[0]
        assert newest["status"] == "completed"

    def test_min_success_fraction_still_refuses_too_many_failures(self):
        from repro.parallel import TrialFailed

        with pytest.raises(TrialFailed):
            _sweep(resilience=_poisoned(min_success_fraction=1.0))

    @pytest.mark.parametrize("cold, warm", [(None, 2), (2, None), (1, 2)])
    def test_rerun_replays_at_another_worker_count(self, tmp_path, cold, warm):
        first = _sweep(store=tmp_path / "s", workers=cold)
        second = _sweep(store=tmp_path / "s", workers=warm)
        assert second.stats.cache_hits == 4
        assert second.digest() == first.digest()


class TestRemovedOptions:
    def test_trial_runner_takes_no_executor(self):
        with pytest.raises(TypeError):
            TrialRunner(_trial, executor=object())

    def test_run_takes_no_seed_seqs(self):
        seeds = np.random.SeedSequence(SEED).spawn(2)
        with pytest.raises(TypeError):
            TrialRunner(_trial).run([0.0, 1.0], seed_seqs=seeds)

    def test_sweep_capacity_takes_no_executor(self):
        with pytest.raises(TypeError):
            _sweep(executor=object())

    def test_inject_faults_help_lists_exactly_the_fault_kinds(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        match = re.search(r"kinds: ([a-z, ]+)\)", text)
        assert match is not None
        assert tuple(match.group(1).split(", ")) == FAULT_KINDS
