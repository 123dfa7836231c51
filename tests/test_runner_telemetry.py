"""Telemetry and logging behavior of :class:`repro.parallel.TrialRunner`.

The observability layer must report every trial exactly once (started +
finished/cached/failed) and surface failures both as a structured warning
and as a typed event carrying the elapsed time.
"""

import logging
import time
from types import SimpleNamespace

from repro.observability import (
    RecordingTelemetry,
    SweepProgress,
    TrialCached,
    TrialFailedEvent,
    TrialFinished,
    TrialStarted,
    using_telemetry,
)
from repro.parallel.runner import TrialRunner
from repro.resilience import RetryPolicy


def _ok_trial(payload):
    return payload * 2


def _fail_trial(payload):
    raise ValueError("deliberate failure")


def _sleep_then_fail_trial(payload):
    time.sleep(payload)
    raise ValueError("deliberate failure after a while")


class FakeCache:
    """Minimal duck-typed trial cache (see TrialRunner.run)."""

    def __init__(self):
        self.data = {}

    def get(self, key):
        return self.data.get(key)

    def put(self, key, value, duration):
        self.data[key] = SimpleNamespace(value=value, duration=duration)


class TestSuccessEvents:
    def test_inline_run_emits_full_lifecycle(self):
        sink = RecordingTelemetry()
        runner = TrialRunner(_ok_trial, telemetry=sink)
        results = runner.run([1, 2, 3])
        assert [r.value for r in results] == [2, 4, 6]
        assert [e.index for e in sink.of_type(TrialStarted)] == [0, 1, 2]
        finished = sink.of_type(TrialFinished)
        assert [e.index for e in finished] == [0, 1, 2]
        assert all(e.attempts == 1 for e in finished)
        assert all(e.duration >= 0 for e in finished)
        progress = sink.of_type(SweepProgress)
        # one announcing the run, one after each completion
        assert progress[0].done == 0 and progress[0].total == 3
        assert progress[-1].done == 3 and progress[-1].failed == 0

    def test_pool_run_reports_every_trial(self):
        sink = RecordingTelemetry()
        runner = TrialRunner(_ok_trial, workers=2, telemetry=sink)
        runner.run([1, 2, 3, 4])
        assert sorted(e.index for e in sink.of_type(TrialStarted)) == [0, 1, 2, 3]
        assert sorted(e.index for e in sink.of_type(TrialFinished)) == [0, 1, 2, 3]
        assert sink.of_type(SweepProgress)[-1].done == 4

    def test_global_sink_is_used_when_no_telemetry_argument(self):
        sink = RecordingTelemetry()
        with using_telemetry(sink):
            TrialRunner(_ok_trial).run([7])
        assert [e.index for e in sink.of_type(TrialFinished)] == [0]

    def test_explicit_sink_wins_over_global(self):
        explicit, ambient = RecordingTelemetry(), RecordingTelemetry()
        with using_telemetry(ambient):
            TrialRunner(_ok_trial, telemetry=explicit).run([7])
        assert explicit.of_type(TrialFinished)
        assert not ambient.events


class TestCacheEvents:
    def run_with_cache(self, sink, cache):
        runner = TrialRunner(_ok_trial, telemetry=sink)
        return runner.run([5, 6], cache=cache, keys=["k5", "k6"])

    def test_warm_run_emits_trial_cached(self):
        cache = FakeCache()
        self.run_with_cache(RecordingTelemetry(), cache)
        sink = RecordingTelemetry()
        results = self.run_with_cache(sink, cache)
        assert all(r.cached for r in results)
        cached = sink.of_type(TrialCached)
        assert [e.index for e in cached] == [0, 1]
        # cache hits carry the original execution's duration
        assert all(e.duration >= 0 for e in cached)
        assert not sink.of_type(TrialStarted)
        assert sink.of_type(SweepProgress)[-1].cached == 2

    def test_cold_run_emits_no_cached_events(self):
        sink = RecordingTelemetry()
        self.run_with_cache(sink, FakeCache())
        assert not sink.of_type(TrialCached)


class TestFailureEvents:
    def test_failing_trial_emits_exactly_one_trial_failed(self, caplog):
        sink = RecordingTelemetry()
        runner = TrialRunner(
            _fail_trial, retry_policy=RetryPolicy(max_attempts=2), telemetry=sink
        )
        with caplog.at_level(logging.WARNING, logger="repro"):
            results = runner.run([0])
        assert not results[0].ok
        failed = sink.of_type(TrialFailedEvent)
        assert len(failed) == 1
        assert failed[0].kind == "exception"
        assert failed[0].attempts == 2  # first run + one retry
        assert "deliberate failure" in failed[0].message
        # both attempts announced, no success event
        assert [e.attempt for e in sink.of_type(TrialStarted)] == [1, 2]
        assert not sink.of_type(TrialFinished)
        # ... and a structured warning reached the log
        assert any(
            "trial failed" in record.getMessage()
            for record in caplog.records
            if record.levelno == logging.WARNING
        )

    def test_pool_failure_emits_one_trial_failed(self):
        sink = RecordingTelemetry()
        runner = TrialRunner(
            _fail_trial,
            workers=2,
            retry_policy=RetryPolicy(max_attempts=1),
            telemetry=sink,
        )
        results = runner.run([0, 1])
        assert all(not r.ok for r in results)
        assert sorted(e.index for e in sink.of_type(TrialFailedEvent)) == [0, 1]
        assert sink.of_type(SweepProgress)[-1].failed == 2

    def test_exception_error_carries_elapsed_seconds(self):
        sink = RecordingTelemetry()
        runner = TrialRunner(
            _sleep_then_fail_trial,
            retry_policy=RetryPolicy(max_attempts=1),
            telemetry=sink,
        )
        results = runner.run([0.05])
        error = results[0].error
        assert error.kind == "exception"
        assert error.elapsed_seconds >= 0.05
        failed = sink.of_type(TrialFailedEvent)
        assert failed[0].elapsed_seconds == error.elapsed_seconds
