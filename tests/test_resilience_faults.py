"""Integration tests: deterministic fault injection through the runner.

Each :class:`FaultPlan` kind must surface as its documented failure mode
(raise -> exception, hang -> timeout, kill -> worker-crash, nan ->
invalid_result, io -> degraded durability), be healed by the retry policy
when the fault covers only the first attempt, and leave a faithful
telemetry trace -- and a crash storm must degrade to inline serial
execution with the repeat-offender payloads quarantined, never hang.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.observability import (
    DegradedToSerial,
    FaultInjected,
    PoolRebuilt,
    RecordingTelemetry,
    TrialRetried,
)
from repro.parallel import TrialRunner
from repro.resilience import (
    FaultPlan,
    RetryPolicy,
    SweepInterrupted,
    interruptible,
    validate_rate,
)
from repro.store import RunStore
from repro.store.keys import TrialSeed, trial_key


def _value_trial(rng, payload):
    return payload


class TestInjectedRaise:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_default_single_attempt_fault_is_healed_by_retry(self, workers):
        sink = RecordingTelemetry()
        runner = TrialRunner(
            _value_trial,
            workers=workers,
            telemetry=sink,
            fault_plan=FaultPlan.parse("raise@0"),
        )
        results = runner.run([10.0, 20.0], seed=0)
        assert [r.value for r in results] == [10.0, 20.0]
        assert results[0].attempts == 2
        assert results[1].attempts == 1
        faults = sink.of_type(FaultInjected)
        assert [(e.index, e.attempt, e.kind) for e in faults] == [(0, 1, "raise")]
        retried = sink.of_type(TrialRetried)
        assert [(e.index, e.kind) for e in retried] == [(0, "exception")]

    def test_persistent_fault_exhausts_attempts(self):
        runner = TrialRunner(
            _value_trial,
            fault_plan=FaultPlan.parse("raise@0x99"),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        results = runner.run([1.0], seed=0)
        assert not results[0].ok
        assert results[0].error.kind == "exception"
        assert results[0].error.attempts == 3
        assert "injected fault" in results[0].error.message


class TestInjectedNan:
    def test_nan_fault_with_validator_heals_on_retry(self):
        runner = TrialRunner(
            _value_trial,
            validator=validate_rate,
            fault_plan=FaultPlan.parse("nan@0"),
        )
        results = runner.run([3.5], seed=0)
        assert results[0].ok
        assert results[0].value == 3.5
        assert results[0].attempts == 2

    def test_persistent_nan_surfaces_invalid_result(self):
        runner = TrialRunner(
            _value_trial,
            validator=validate_rate,
            fault_plan=FaultPlan.parse("nan@0x99"),
        )
        results = runner.run([3.5], seed=0)
        assert not results[0].ok
        assert results[0].error.kind == "invalid_result"
        assert "NaN" in results[0].error.message

    def test_validator_rejects_negative_throughput(self):
        results = TrialRunner(_value_trial, validator=validate_rate).run(
            [-1.0], seed=0
        )
        assert not results[0].ok
        assert results[0].error.kind == "invalid_result"
        assert "negative" in results[0].error.message
        # validation failures are retryable (attempts exhausted)
        assert results[0].error.attempts == 2


class TestInjectedKill:
    def test_kill_fault_healed_on_rebuilt_pool(self):
        sink = RecordingTelemetry()
        runner = TrialRunner(
            _value_trial,
            workers=2,
            telemetry=sink,
            fault_plan=FaultPlan.parse("kill@0"),
        )
        results = runner.run([1.0, 2.0, 3.0, 4.0], seed=0)
        assert all(r.ok for r in results)
        assert [r.value for r in results] == [1.0, 2.0, 3.0, 4.0]
        assert runner.last_stats.pool_rebuilds >= 1
        rebuilt = sink.of_type(PoolRebuilt)
        assert rebuilt and rebuilt[0].rebuilds == 1
        kinds = {e.kind for e in sink.of_type(FaultInjected)}
        assert kinds == {"kill"}

    def test_kill_downgrades_to_raise_inline(self):
        sink = RecordingTelemetry()
        runner = TrialRunner(
            _value_trial,
            workers=None,
            telemetry=sink,
            fault_plan=FaultPlan.parse("kill@0"),
        )
        results = runner.run([1.0], seed=0)
        assert results[0].ok
        assert results[0].attempts == 2
        # the emitted fault is the *effective* kind
        assert [e.kind for e in sink.of_type(FaultInjected)] == ["raise"]


class TestInjectedHang:
    def test_hang_fault_surfaces_as_timeout(self):
        runner = TrialRunner(
            _value_trial,
            workers=2,
            timeout=0.3,
            fault_plan=FaultPlan.parse("hang@0x99"),
            retry_policy=RetryPolicy.from_retries(0),
        )
        results = runner.run([1.0, 2.0], seed=0)
        assert not results[0].ok
        assert results[0].error.kind == "timeout"
        assert results[1].ok

    def test_hang_fault_requires_timeout(self):
        with pytest.raises(ValueError, match="hang faults require a timeout"):
            TrialRunner(_value_trial, fault_plan=FaultPlan.parse("hang@0"))


class TestInjectedJournalIO:
    def test_io_fault_keeps_the_value_but_skips_the_journal(self, tmp_path):
        store = RunStore(tmp_path / "store")
        keys = [
            trial_key({"p": 1}, "A", 100, TrialSeed(0, index))
            for index in range(2)
        ]
        sink = RecordingTelemetry()
        runner = TrialRunner(
            _value_trial,
            telemetry=sink,
            fault_plan=FaultPlan.parse("io@0"),
        )
        results = runner.run([1.0, 2.0], seed=0, cache=store, keys=keys)
        # both values survive in memory...
        assert [r.value for r in results] == [1.0, 2.0]
        assert all(r.ok for r in results)
        # ...but only the unfaulted trial reached the journal
        store.reload()
        assert store.get(keys[0]) is None
        assert store.get(keys[1]) is not None
        assert [e.kind for e in sink.of_type(FaultInjected)] == ["io"]


class _OneInFlight(TrialRunner):
    """A runner that keeps one batch in flight per worker."""

    CHUNK_SIZE = 1


class TestCrashStormDegradation:
    def test_repeat_crasher_quarantined_and_rest_run_inline(self):
        """Deterministic storm: workers=1, CHUNK_SIZE=1 -> exactly one trial
        in flight per pool, so crash attribution is exact.

        ``kill@0-1x99`` makes trials 0 and 1 kill their worker on every
        attempt.  Submission order 0,1,2,3 with requeue-at-the-back gives
        trial 0 a second crash (quarantine threshold) on the third rebuild
        (the storm threshold); trial 1, still below the threshold, continues
        inline where the kill downgrades to raise and exhausts its attempts.
        """
        sink = RecordingTelemetry()
        runner = _OneInFlight(
            _value_trial,
            workers=1,
            telemetry=sink,
            fault_plan=FaultPlan.parse("kill@0-1x99"),
            retry_policy=RetryPolicy(max_attempts=10),
            max_rebuilds=3,
            rebuild_window_seconds=3600.0,
        )
        results = runner.run([0.5, 1.5, 2.5, 3.5], seed=0)
        assert runner.last_stats.degraded
        assert runner.last_stats.pool_rebuilds == 3
        assert not results[0].ok
        assert results[0].error.kind == "quarantined"
        assert "crash storm" in results[0].error.message
        assert not results[1].ok
        assert results[1].error.kind == "exception"  # inline kill -> raise
        assert results[1].error.attempts == 10
        assert results[2].ok and results[2].value == 2.5
        assert results[3].ok and results[3].value == 3.5
        degraded = sink.of_type(DegradedToSerial)
        assert len(degraded) == 1
        assert degraded[0].rebuilds == 3
        assert degraded[0].quarantined == (0,)
        assert len(sink.of_type(PoolRebuilt)) == 3

    def test_everything_crashing_still_terminates(self):
        """A storm where every payload kills its worker must end with
        structured errors, never a hung sweep."""
        sink = RecordingTelemetry()
        runner = TrialRunner(
            _value_trial,
            workers=2,
            telemetry=sink,
            fault_plan=FaultPlan.parse("kill@*x99"),
            retry_policy=RetryPolicy(max_attempts=6),
            max_rebuilds=3,
            rebuild_window_seconds=3600.0,
        )
        results = runner.run([1.0, 2.0, 3.0], seed=0)
        assert all(not r.ok for r in results)
        assert all(
            r.error.kind in {"quarantined", "exception", "worker-crash"}
            for r in results
        )
        assert runner.last_stats.degraded
        assert sink.of_type(DegradedToSerial)


_SIGTERM_SWEEP = r"""
import pathlib, sys, time
from repro.parallel import TrialRunner
from repro.resilience import interruptible

def slow_trial(rng, payload):
    started, k = payload
    pathlib.Path(started, str(k)).touch()
    # long enough for the parent to SIGTERM mid-flight, short enough that
    # interpreter exit (which joins the forked workers) stays fast
    time.sleep(6.0)
    return k

runner = TrialRunner(slow_trial, workers=2)
try:
    with interruptible():
        runner.run([(sys.argv[1], k) for k in range(2)])
except KeyboardInterrupt:
    print("DRAINED", flush=True)
    sys.exit(0)
print("UNREACHED", flush=True)
sys.exit(1)
"""


class TestGracefulDrain:
    def test_interruptible_converts_sigterm(self):
        with pytest.raises(SweepInterrupted):
            with interruptible():
                os.kill(os.getpid(), signal.SIGTERM)

    def test_sweep_interrupted_is_a_keyboard_interrupt(self):
        assert issubclass(SweepInterrupted, KeyboardInterrupt)

    def test_handlers_restored_after_the_block(self):
        before = signal.getsignal(signal.SIGTERM)
        with interruptible():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_sigterm_drains_a_parallel_sweep(self, tmp_path):
        """SIGTERM while ``workers=2`` trials run takes the
        interruptible -> KeyboardInterrupt drain path out of the pool: the
        sweep process exits 0 instead of hanging on its workers."""
        script = tmp_path / "sigterm_sweep.py"
        script.write_text(_SIGTERM_SWEEP)
        started = tmp_path / "started"
        started.mkdir()
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), env.get("PYTHONPATH", "")]
        )
        child = subprocess.Popen(
            [sys.executable, str(script), str(started)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,  # one group to reap, workers included
        )
        try:
            deadline = time.monotonic() + 30.0
            while not any(started.iterdir()) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert any(started.iterdir()), "no trial started in a worker"
            child.send_signal(signal.SIGTERM)
            out, _ = child.communicate(timeout=60)
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:  # drained: the group already exited
                pass
            child.communicate()
        assert "DRAINED" in out
        assert child.returncode == 0
