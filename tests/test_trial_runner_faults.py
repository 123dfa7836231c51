"""Fault injection for :class:`repro.parallel.TrialRunner`.

Each failure mode documented by the runner -- a trial that raises, a worker
killed mid-trial -- must produce the structured :class:`TrialError` (after
exactly one retry) instead of hanging the pool, and a transient fault must
be healed by the retry.
"""

import os
import signal
import time

import pytest

from repro.parallel import TrialError, TrialFailed, TrialRunner


def _ok_trial(payload):
    return payload


def _raising_trial(payload):
    raise RuntimeError(f"injected failure {payload}")


def _flaky_trial(payload):
    """Fails on the first attempt only, using a marker file as memory."""
    marker = payload
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempt 1")
        raise RuntimeError("transient failure")
    return "recovered"


def _kill_worker_trial(payload):
    os.kill(os.getpid(), signal.SIGKILL)


def _kill_worker_once_trial(payload):
    marker = payload
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempt 1")
        os.kill(os.getpid(), signal.SIGKILL)
    return "survived"


class TestRaisingTrial:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_structured_error_after_one_retry(self, workers):
        runner = TrialRunner(_raising_trial, workers=workers)
        results = runner.run(["x"])
        error = results[0].error
        assert isinstance(error, TrialError)
        assert error.kind == "exception"
        assert error.attempts == 2
        assert "injected failure x" in error.message
        assert "RuntimeError" in error.traceback
        assert runner.last_stats.failures == 1
        assert runner.last_stats.retries == 1

    def test_other_trials_still_complete(self):
        def_payloads = ["a", "b"]
        runner = TrialRunner(_raising_trial, workers=2)
        mixed = TrialRunner(_ok_trial, workers=2).run(def_payloads)
        assert [r.value for r in mixed] == def_payloads
        results = runner.run(def_payloads)
        assert all(not r.ok for r in results)
        assert sorted(r.index for r in results) == [0, 1]

    def test_run_values_raises_trial_failed(self):
        with pytest.raises(TrialFailed) as excinfo:
            TrialRunner(_raising_trial, workers=2).run_values(["boom"])
        assert excinfo.value.error.kind == "exception"

    def test_retry_heals_transient_failure(self, tmp_path):
        marker = str(tmp_path / "flaky-marker")
        results = TrialRunner(_flaky_trial, workers=2).run([marker])
        assert results[0].ok
        assert results[0].value == "recovered"
        assert results[0].attempts == 2


class TestKilledWorker:
    def test_structured_error_after_one_retry(self):
        runner = TrialRunner(_kill_worker_trial, workers=2)
        start = time.monotonic()
        results = runner.run([None])
        elapsed = time.monotonic() - start
        error = results[0].error
        assert error is not None
        assert error.kind == "worker-crash"
        assert error.attempts == 2
        assert elapsed < 60, "broken pool must not hang"

    def test_pool_recovers_for_innocent_trials(self, tmp_path):
        """A crash-once trial is re-queued onto a rebuilt pool and succeeds."""
        marker = str(tmp_path / "kill-marker")
        results = TrialRunner(_kill_worker_once_trial, workers=1).run([marker])
        assert results[0].ok
        assert results[0].value == "survived"
        assert results[0].attempts == 2

    def test_runner_usable_after_crash(self):
        runner = TrialRunner(_kill_worker_trial, workers=1)
        runner.run([None])
        healthy = TrialRunner(_ok_trial, workers=1).run([1, 2])
        assert [r.value for r in healthy] == [1, 2]
