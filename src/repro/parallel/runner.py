"""Parallel Monte-Carlo trial execution.

Every empirical artifact of the reproduction (Table I slopes, the Figure 1-3
panels, the convergence studies) is an average over independent trials.  The
:class:`TrialRunner` fans those trials out over a
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping the results
**bit-identical regardless of worker count or scheduling order**:

- Per-trial randomness is derived up front with
  ``numpy.random.SeedSequence(seed).spawn(len(payloads))`` -- trial ``i``
  always receives the generator built from child ``i``, no matter which
  worker runs it or when.  This matches the serial derivation used by
  :func:`repro.utils.rng.spawn_rngs`, so a parallel sweep reproduces the
  serial sweep exactly.
- Results are returned ordered by trial index, not completion order.

**The batch is the only unit of execution, retry, timeout, fault injection
and crash accounting.**  :meth:`TrialRunner.run_batched` groups trials into
same-shape batches that one call executes together;
:meth:`TrialRunner.run` is the same machinery over batches of one member,
each calling ``trial_fn`` once.  A width-1 batch reports exactly what a
serial trial does: same errors, same telemetry.

Fault handling (each mechanism is exercised by
``tests/test_trial_runner_faults.py``, ``tests/test_resilience_faults.py``
and ``tests/test_batched_faults.py``):

- A failing batch is retried under a configurable
  :class:`~repro.resilience.RetryPolicy` (max attempts, exponential backoff
  with deterministic per-trial jitter, retry-on predicates per error kind):
  the retry re-submits the batch's still-unfinished members, each with its
  own seed.  A member that fails for good surfaces as a structured
  :class:`TrialError`.
- A per-batch ``timeout`` is enforced *inside* the worker with ``SIGALRM``
  (POSIX), so a stuck batch is interrupted without poisoning the pool;
  a second, harder deadline in the parent terminates the worker processes
  if the alarm itself is ignored.  Either way the batch is retried per the
  policy and then reported with ``kind="timeout"``.
- A worker killed mid-batch breaks the pool
  (:class:`~concurrent.futures.process.BrokenProcessPool`); the runner
  rebuilds the pool, re-queues every in-flight batch and reports
  unrecoverable members with ``kind="worker-crash"`` instead of hanging.
  A :class:`~repro.resilience.PoolSupervisor` watches the rebuild rate:
  once a **crash storm** is detected (``max_rebuilds`` rebuilds inside
  ``rebuild_window_seconds``), trials implicated in repeated crashes are
  quarantined (``kind="quarantined"``) and the remaining trials degrade
  gracefully to inline serial execution instead of livelocking on
  rebuilds -- emitting ``pool_rebuilt`` and ``degraded_to_serial``
  telemetry along the way.
- A ``validator`` runs in the parent on every fresh member value:
  NaN/inf/negative throughput becomes ``kind="invalid_result"`` (retried
  per the policy, that member alone) instead of polluting sweep
  aggregates.  A value the store journal refuses to serialize is surfaced
  the same way; a journal *IO* error only degrades durability (logged,
  value kept).
- A :class:`~repro.resilience.FaultPlan` injects deterministic faults
  keyed by ``(trial index, attempt)`` for bit-reproducible chaos testing;
  a fault fires on the batch attempt that holds its trial.  ``raise`` /
  ``hang`` / ``kill`` fail the whole batch, ``nan`` replaces that
  member's value and ``io`` fails its journal append.  Each armed fault
  is announced with a ``fault_injected`` event from the parent.

The trial callable must be picklable (a module-level function) with
signature ``trial_fn(rng, payload) -> value`` and the value must be
picklable too.  ``workers=None`` runs the same code path inline with no
subprocesses -- handy under debuggers and the baseline for the determinism
tests.

Caching (the :mod:`repro.store` integration): :meth:`TrialRunner.run`
accepts an optional duck-typed ``cache`` (``get(key) -> obj with .value and
.duration, or None``; ``put(key, value, duration)``) plus one content-hash
``key`` per trial.  Keyed trials are looked up *before* submission -- hits
are returned as :class:`TrialResult` with ``cached=True`` and never touch
the pool -- and journaled via ``cache.put`` the moment they complete, so an
interrupted run preserves every finished trial.  Seeds are still spawned
for the **full** payload list by trial index, so a partially-cached run
hands every executing trial exactly the generator a cold run would.
"""

from __future__ import annotations

import functools
import os
import signal
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..observability import events as _events
from ..observability.log import get_logger
from ..resilience.faults import FaultPlan
from ..resilience.retry import RetryPolicy
from ..resilience.supervisor import PoolSupervisor

__all__ = [
    "TrialError",
    "TrialFailed",
    "TrialResult",
    "TrialStats",
    "TrialRunner",
    "run_trials",
]

_log = get_logger(__name__)


@dataclass(frozen=True)
class TrialError:
    """Structured description of one trial's unrecoverable failure."""

    trial_index: int
    #: ``"exception"`` (trial raised), ``"timeout"`` (per-trial deadline
    #: exceeded), ``"worker-crash"`` (the worker process died),
    #: ``"invalid_result"`` (the value failed validation or could not be
    #: journaled) or ``"quarantined"`` (payload pulled after a crash storm).
    kind: str
    message: str
    #: Total attempts made (first run + retries).
    attempts: int
    traceback: str = ""
    #: Wall-clock seconds of the final attempt at the point of failure
    #: (how long a timeout burned, how far an exception got; 0.0 when the
    #: worker died before reporting).
    elapsed_seconds: float = 0.0

    def __str__(self) -> str:
        return (
            f"trial {self.trial_index} failed ({self.kind}) after "
            f"{self.attempts} attempt(s): {self.message}"
        )


class TrialFailed(RuntimeError):
    """Raised by :meth:`TrialRunner.run_values` when a trial fails for good."""

    def __init__(self, error: TrialError):
        super().__init__(str(error))
        self.error = error


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial: either a value or a :class:`TrialError`."""

    index: int
    value: Any
    attempts: int
    #: In-worker wall-clock seconds of the successful attempt (0 on failure;
    #: the *original* execution's duration when served from cache).
    duration: float
    error: Optional[TrialError] = None
    #: Whether the value was served from the trial cache (attempts == 0).
    cached: bool = False

    @property
    def ok(self) -> bool:
        """Whether the trial produced a value."""
        return self.error is None


@dataclass(frozen=True)
class TrialStats:
    """Aggregate throughput counters of one :meth:`TrialRunner.run` call."""

    trials: int
    failures: int
    retries: int
    elapsed_seconds: float
    workers: Optional[int]
    #: Trials served from the cache instead of executed.
    cache_hits: int = 0
    #: Worker-pool rebuilds forced by crashed workers or hard timeouts.
    pool_rebuilds: int = 0
    #: Whether a crash storm forced degradation to inline execution.
    degraded: bool = False

    @property
    def cache_misses(self) -> int:
        """Trials that actually executed (total minus cache hits)."""
        return self.trials - self.cache_hits

    @property
    def trials_per_second(self) -> float:
        """Completed trials per wall-clock second of the whole run."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.trials / self.elapsed_seconds

    def summary(self) -> str:
        """One-line human-readable digest."""
        mode = "inline" if self.workers is None else f"{self.workers} workers"
        if self.degraded:
            mode += ", degraded to serial"
        cache = (
            f" cache_hits={self.cache_hits}/{self.trials}"
            if self.cache_hits
            else ""
        )
        rebuilds = (
            f" pool_rebuilds={self.pool_rebuilds}" if self.pool_rebuilds else ""
        )
        return (
            f"trials={self.trials} failures={self.failures} "
            f"retries={self.retries}{cache}{rebuilds} "
            f"elapsed={self.elapsed_seconds:.2f}s "
            f"({self.trials_per_second:.1f} trials/s, {mode})"
        )


class _TrialTimeout(Exception):
    """Internal: raised in the worker when the SIGALRM deadline fires."""


def _raise_trial_timeout(signum, frame):
    raise _TrialTimeout()


def _each_member(trial_fn, seed_seqs, payloads) -> list:
    """The batch function of :meth:`TrialRunner.run`: ``trial_fn`` once per
    member, on the generator of that member's own seed."""
    return [
        trial_fn(np.random.default_rng(seed_seq), payload)
        for seed_seq, payload in zip(seed_seqs, payloads)
    ]


def _execute(batch_fn, seed_seqs, payloads, timeout, inject=None, nan=()):
    """Run one batch attempt (worker side); returns a structured outcome.

    ``("ok", values, seconds)`` on success, else ``(kind, message,
    traceback, seconds)`` with kind ``"exception"``, ``"timeout"`` or
    ``"invalid_result"`` (the batch returned the wrong number of values).
    Exceptions are converted to tuples rather than raised so arbitrary
    (possibly unpicklable) exception types never cross the process boundary.

    ``inject`` is ``(kind, trial index)`` of one deterministic fault (see
    :class:`repro.resilience.FaultPlan`): ``raise`` / ``hang`` / ``kill``
    replace the batch body.  ``nan`` lists member positions whose value is
    replaced by NaN, which the parent-side validation boundary rejects.
    """
    start = time.perf_counter()
    previous_handler = None
    if timeout is not None:
        previous_handler = signal.signal(signal.SIGALRM, _raise_trial_timeout)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        fault, index = inject if inject is not None else (None, None)
        if fault == "raise":
            raise RuntimeError(f"injected fault: trial {index} raises")
        if fault == "hang":
            # sleep far past the deadline; the in-worker alarm interrupts it
            time.sleep((timeout or 0.0) + 3600.0)
        if fault == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        values = batch_fn(seed_seqs, payloads)
        if not isinstance(values, (list, tuple)) or len(values) != len(payloads):
            return (
                "invalid_result",
                f"batch returned {type(values).__name__} instead of "
                f"{len(payloads)} member value(s)",
                "",
                time.perf_counter() - start,
            )
        values = [float("nan") if p in nan else v for p, v in enumerate(values)]
        return ("ok", values, time.perf_counter() - start)
    except _TrialTimeout:
        return (
            "timeout",
            f"trial exceeded {timeout} s",
            "",
            time.perf_counter() - start,
        )
    except Exception as exc:  # noqa: BLE001 - converted to structured error
        return (
            "exception",
            f"{type(exc).__name__}: {exc}",
            traceback_module.format_exc(),
            time.perf_counter() - start,
        )
    finally:
        if timeout is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)


def _failed(error: "TrialError") -> "TrialResult":
    """The result of a trial that failed for good."""
    return TrialResult(
        index=error.trial_index,
        value=None,
        attempts=error.attempts,
        duration=0.0,
        error=error,
    )


class _Emitter:
    """Parent-side telemetry for one :meth:`TrialRunner.run` call.

    Tracks completion counters and translates runner outcomes into the
    typed events of :mod:`repro.observability.events`.  With the default
    :class:`~repro.observability.events.NullTelemetry` sink every method is
    a counter bump plus one boolean check -- no event objects are built.
    """

    def __init__(self, sink, total: int):
        self._sink = sink
        self._enabled = sink.enabled
        self.total = total
        self.done = 0
        self.cached = 0
        self.failed = 0
        self._start = time.perf_counter()

    def _progress(self) -> None:
        self._sink.emit(
            _events.SweepProgress(
                done=self.done,
                total=self.total,
                cached=self.cached,
                failed=self.failed,
                elapsed_seconds=time.perf_counter() - self._start,
            )
        )

    def begin(self) -> None:
        """Announce the run (done=0 progress carries the trial total)."""
        if self._enabled:
            self._progress()

    def started(self, index: int, attempt: int) -> None:
        if self._enabled:
            self._sink.emit(_events.TrialStarted(index=index, attempt=attempt))

    def fault(self, index: int, attempt: int, kind: str) -> None:
        """Announce one armed fault (parent side, at submission time)."""
        if self._enabled:
            self._sink.emit(
                _events.FaultInjected(index=index, attempt=attempt, kind=kind)
            )

    def retried(self, index: int, attempt: int, kind: str, delay: float) -> None:
        """Announce one retry decision (before the backoff sleep)."""
        if self._enabled:
            self._sink.emit(
                _events.TrialRetried(
                    index=index, attempt=attempt, kind=kind, delay_seconds=delay
                )
            )

    def pool_rebuilt(self, rebuilds: int, inflight: int) -> None:
        if self._enabled:
            self._sink.emit(
                _events.PoolRebuilt(rebuilds=rebuilds, inflight=inflight)
            )

    def degraded(self, rebuilds: int, quarantined) -> None:
        if self._enabled:
            self._sink.emit(
                _events.DegradedToSerial(
                    rebuilds=rebuilds, quarantined=tuple(quarantined)
                )
            )

    def cache_hit(self, result: "TrialResult") -> None:
        self.done += 1
        self.cached += 1
        if self._enabled:
            self._sink.emit(
                _events.TrialCached(index=result.index, duration=result.duration)
            )
            self._progress()

    def finished(self, result: "TrialResult") -> None:
        """Record one final (non-cached) outcome: success or failure."""
        self.done += 1
        if not result.ok:
            self.failed += 1
            error = result.error
            _log.warning("trial failed: %s", error)
            if self._enabled:
                self._sink.emit(
                    _events.TrialFailedEvent(
                        index=error.trial_index,
                        kind=error.kind,
                        message=error.message,
                        attempts=error.attempts,
                        elapsed_seconds=error.elapsed_seconds,
                    )
                )
                self._progress()
            return
        if self._enabled:
            self._sink.emit(
                _events.TrialFinished(
                    index=result.index,
                    attempts=result.attempts,
                    duration=result.duration,
                )
            )
            self._progress()


class _Job:
    """The state of one :meth:`TrialRunner.run` / ``run_batched`` call.

    Built by the runner's prologue (validation, seeding, cache hits);
    :meth:`run_local` fills :attr:`results` (inline or over this process's
    pool) and the runner's epilogue turns the filled job into
    :class:`TrialStats`.

    ``items`` are the batches still to execute, as tuples of member trial
    indices in submission order (cache hits already removed).
    """

    def __init__(self, runner, payloads, batch_fn, plan, cache, keys, emitter):
        self.runner = runner
        self.payloads = payloads
        self.batch_fn = batch_fn
        self.plan = plan
        self.seeds: list = []
        self.cache = cache
        self.keys = keys
        self.emitter = emitter
        self.results: List[Optional[TrialResult]] = [None] * len(payloads)
        self.attempts = [0] * len(payloads)
        self.items: List[Tuple[int, ...]] = []
        self.pool_rebuilds = 0
        self.degraded = False

    # ------------------------------------------------------------------
    # outcomes
    # ------------------------------------------------------------------
    def complete(self, result: TrialResult) -> None:
        """Record one final outcome: journal a success, announce it."""
        result = self._journal(result)
        self.results[result.index] = result
        self.emitter.finished(result)

    def accept(
        self, index: int, value: Any, attempts: int, duration: float, elapsed: float
    ) -> Optional[TrialError]:
        """Validate one fresh member value; complete it, or return the
        ``invalid_result`` error the validator raised."""
        validator = self.runner._validator
        message = validator(value) if validator is not None else None
        if message is not None:
            return TrialError(
                trial_index=index,
                kind="invalid_result",
                message=message,
                attempts=attempts,
                elapsed_seconds=elapsed,
            )
        self.complete(
            TrialResult(index=index, value=value, attempts=attempts, duration=duration)
        )
        return None

    def _journal(self, result: TrialResult) -> TrialResult:
        """Durably record one fresh success in the trial cache.

        Returns the result to surface: unchanged on success; converted to
        ``kind="invalid_result"`` when the store refuses the *value*
        (``ValueError``, e.g. a non-finite float the journal cannot
        encode); unchanged-but-logged when the journal *write* fails with
        an ``OSError`` -- durability degrades, the sweep keeps its value.
        """
        if self.cache is None or self.keys is None or not result.ok:
            return result
        key = self.keys[result.index]
        if key is None:
            return result
        plan = self.runner._fault_plan
        try:
            if (
                plan is not None
                and plan.fault_for(result.index, result.attempts) == "io"
            ):
                self.emitter.fault(result.index, result.attempts, "io")
                raise OSError(
                    f"injected fault: journal append for trial {result.index}"
                )
            self.cache.put(key, result.value, result.duration)
        except ValueError as exc:
            return _failed(
                TrialError(
                    trial_index=result.index,
                    kind="invalid_result",
                    message=f"value could not be journaled: {exc}",
                    attempts=result.attempts,
                    elapsed_seconds=result.duration,
                )
            )
        except OSError as exc:
            _log.warning(
                "journal append failed for trial %d (%s: %s); the value is "
                "kept in memory but will not survive an interruption",
                result.index,
                type(exc).__name__,
                exc,
            )
        return result

    def _fail(self, members, kind, message, traceback="", elapsed=0.0):
        """One batch-level failure: every member fails the same way (a
        batch wider than 1 prefixes the message with its width)."""
        if len(members) > 1:
            message = f"batch of {len(members)}: {message}"
        return [
            TrialError(
                trial_index=index,
                kind=kind,
                message=message,
                attempts=self.attempts[index],
                traceback=traceback,
                elapsed_seconds=elapsed,
            )
            for index in members
        ]

    def _retry_or_fail(self, errors: List[TrialError]):
        """Retry the failed members as one batch, or fail them for good.

        The members of one batch attempt share their attempt count and
        failure kind.  Returns ``(members, backoff delay)`` to re-submit,
        or ``None`` when nothing is retried.
        """
        if not errors:
            return None
        policy = self.runner._policy
        first = errors[0]
        if policy.should_retry(first.kind, first.attempts):
            delay = policy.delay(first.attempts, self.seeds[first.trial_index])
            for error in errors:
                self.emitter.retried(
                    error.trial_index, error.attempts, error.kind, delay
                )
            return tuple(error.trial_index for error in errors), delay
        for error in errors:
            self.complete(_failed(error))
        return None

    def _settle(self, members, outcome):
        """Absorb one batch attempt's outcome (see :meth:`_retry_or_fail`)."""
        if outcome[0] != "ok":
            return self._retry_or_fail(self._fail(members, *outcome))
        _status, values, elapsed = outcome
        duration = elapsed / len(members)
        errors = []
        for index, value in zip(members, values):
            error = self.accept(index, value, self.attempts[index], duration, elapsed)
            if error is not None:
                errors.append(error)
        return self._retry_or_fail(errors)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _arm(self, members, inline: bool) -> tuple:
        """Start the next attempt of ``members``: count it, announce it and
        arm its faults.  Returns the :func:`_execute` arguments."""
        inject = None
        nan = []
        for position, index in enumerate(members):
            self.attempts[index] += 1
            attempt = self.attempts[index]
            fault = self.runner._fault_for(index, attempt, inline)
            self.emitter.started(index, attempt)
            if fault is None:
                continue
            self.emitter.fault(index, attempt, fault)
            if fault == "nan":
                nan.append(position)
            elif inject is None:
                inject = (fault, index)
        return (
            self.batch_fn,
            [self.seeds[index] for index in members],
            [self.payloads[index] for index in members],
            self.runner._timeout,
            inject,
            tuple(nan),
        )

    def run_local(self, items) -> None:
        """Execute ``items`` in this process: inline, or over its pool."""
        if self.runner.workers is None:
            self._run_inline(items)
        else:
            self._run_pool(items)

    def _run_inline(self, items) -> None:
        """Execute ``items`` serially in this process, each batch retried
        (after its backoff) before the next starts."""
        for members in items:
            while members:
                outcome = _execute(*self._arm(members, inline=True))
                retry = self._settle(members, outcome)
                if retry is None:
                    break
                members, delay = retry
                if delay > 0:
                    time.sleep(delay)

    def _run_pool(self, items) -> None:
        """Execute ``items`` over a worker pool."""
        runner = self.runner
        pending: deque = deque((members, 0.0) for members in items)
        crash_counts: Dict[int, int] = {}
        supervisor = PoolSupervisor(runner._max_rebuilds, runner._rebuild_window)
        window = runner.workers * runner.CHUNK_SIZE
        executor = ProcessPoolExecutor(max_workers=runner.workers)
        # batches force-killed by the parent-side hard deadline: their pool
        # breakage should be reported as a timeout, not a crash.
        hard_timed_out: set = set()

        def crashed(members):
            for index in members:
                crash_counts[index] = crash_counts.get(index, 0) + 1
            if members in hard_timed_out:
                hard_timed_out.discard(members)  # one crash consumes one flag
                errors = self._fail(
                    members,
                    "timeout",
                    f"trial ignored its {runner._timeout} s alarm and was "
                    "terminated",
                    # the worker burned the full deadline before the parent
                    # shot it
                    elapsed=float(runner._timeout) + runner.HARD_TIMEOUT_GRACE,
                )
            else:
                errors = self._fail(
                    members, "worker-crash", "worker process died mid-trial"
                )
            requeue(self._retry_or_fail(errors))

        def requeue(retry):
            if retry is not None:
                members, delay = retry
                pending.append((members, time.monotonic() + delay))

        try:
            inflight = {}  # future -> (members, deadline or None)
            while pending or inflight:
                deferred = []
                now = time.monotonic()
                while pending and len(inflight) < window:
                    members, ready = pending.popleft()
                    if ready > now:
                        deferred.append((members, ready))
                        continue
                    future = executor.submit(
                        _execute, *self._arm(members, inline=False)
                    )
                    deadline = (
                        now + runner._timeout + runner.HARD_TIMEOUT_GRACE
                        if runner._timeout is not None
                        else None
                    )
                    inflight[future] = (members, deadline)
                pending.extend(deferred)
                if not inflight:
                    # everything pending is backing off; nap until the
                    # earliest retry becomes ready
                    wake = min(ready for _members, ready in pending)
                    time.sleep(max(wake - time.monotonic(), 0.0))
                    continue
                done, _ = wait(
                    list(inflight), timeout=0.05, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in done:
                    members, _deadline = inflight.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        broken = True
                        crashed(members)
                        continue
                    requeue(self._settle(members, outcome))
                if not done and _deadline_exceeded(inflight):
                    # A worker ignored its in-worker alarm; terminate the
                    # pool's processes so the broken-pool path recycles it.
                    for members, deadline in inflight.values():
                        if deadline is not None and time.monotonic() > deadline:
                            hard_timed_out.add(members)
                    runner._terminate_workers(executor)
                    broken = True
                if broken:
                    # The pool is unusable: every remaining in-flight batch
                    # died with it.  Re-queue or fail each, then rebuild.
                    _log.warning(
                        "worker pool broke with %d batch(es) in flight; "
                        "rebuilding the pool",
                        len(inflight),
                    )
                    died = len(inflight)
                    for members, _deadline in inflight.values():
                        crashed(members)
                    inflight.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = ProcessPoolExecutor(max_workers=runner.workers)
                    storm = supervisor.record_rebuild()
                    self.pool_rebuilds = supervisor.rebuilds
                    self.emitter.pool_rebuilt(supervisor.rebuilds, died)
                    if storm:
                        self._degrade_to_serial(pending, crash_counts, supervisor)
                        return
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _degrade_to_serial(self, pending, crash_counts, supervisor) -> None:
        """Crash storm: quarantine repeat-crashers, run the rest inline.

        A trial that crashed the pool :data:`TrialRunner.QUARANTINE_CRASHES`
        or more times is surfaced as ``kind="quarantined"`` (running it
        inline would risk taking the parent down with it); every other
        unfinished trial executes serially in the parent, where a broken
        pool cannot hurt it.
        """
        self.degraded = True
        threshold = self.runner.QUARANTINE_CRASHES
        quarantined = sorted(
            index
            for members, _ready in pending
            for index in members
            if crash_counts.get(index, 0) >= threshold
        )
        survivors = [
            tuple(index for index in members if index not in quarantined)
            for members, _ready in pending
        ]
        _log.warning(
            "crash storm: %d pool rebuild(s) within %.0f s; quarantining "
            "%d payload(s) %s and degrading %d remaining trial(s) to inline "
            "serial execution",
            supervisor.rebuilds,
            supervisor.window_seconds,
            len(quarantined),
            quarantined,
            sum(len(members) for members in survivors),
        )
        self.emitter.degraded(supervisor.rebuilds, quarantined)
        for index in quarantined:
            self.complete(
                _failed(
                    TrialError(
                        trial_index=index,
                        kind="quarantined",
                        message=(
                            f"payload crashed {crash_counts[index]} worker(s); "
                            f"quarantined after {supervisor.rebuilds} pool "
                            "rebuild(s) (crash storm)"
                        ),
                        attempts=self.attempts[index],
                    )
                )
            )
        self._run_inline(survivors)


def _deadline_exceeded(inflight) -> bool:
    now = time.monotonic()
    return any(
        deadline is not None and now > deadline
        for _members, deadline in inflight.values()
    )


class TrialRunner:
    """Deterministic fan-out of independent trials over a process pool.

    Parameters
    ----------
    trial_fn:
        Module-level callable ``trial_fn(rng, payload) -> value``.  Must be
        picklable when ``workers`` is not ``None``.
    workers:
        ``None`` runs trials inline (no subprocesses); an integer ``>= 1``
        uses a :class:`ProcessPoolExecutor` with that many workers.  The
        results are bit-identical either way.
    timeout:
        Optional per-batch wall-clock deadline in seconds (per trial for
        :meth:`run`).
    telemetry:
        Optional :class:`~repro.observability.events.Telemetry` sink for
        the trial lifecycle events (``trial_started`` / ``trial_finished``
        / ``trial_cached`` / ``trial_failed`` / ``trial_retried`` /
        ``fault_injected`` / ``pool_rebuilt`` / ``degraded_to_serial`` and
        ``sweep_progress``).  ``None`` uses the process-wide current sink
        (:func:`~repro.observability.events.get_telemetry`), which is a
        no-op unless the CLI (or a test) installed one.  Events are
        emitted from the parent process only.
    retry_policy:
        A :class:`~repro.resilience.RetryPolicy` governing attempts,
        backoff and per-kind retry predicates (default: two attempts, no
        backoff).
    fault_plan:
        A :class:`~repro.resilience.FaultPlan` of deterministic faults
        keyed by ``(trial index, attempt)``.  ``hang`` faults require a
        ``timeout``.
    validator:
        Optional parent-side ``validator(value) -> Optional[str]`` applied
        to every fresh trial value; a non-``None`` message fails the
        attempt with ``kind="invalid_result"`` (retryable per the policy).
    max_rebuilds / rebuild_window_seconds:
        Crash-storm threshold: after ``max_rebuilds`` pool rebuilds within
        the window, crash-implicated payloads are quarantined and the run
        degrades to inline serial execution.
    """

    #: Extra parent-side slack (seconds) on top of ``timeout`` before the
    #: pool is forcibly recycled because a worker ignored its alarm.
    HARD_TIMEOUT_GRACE = 5.0

    #: In pool mode at most ``workers * CHUNK_SIZE`` batches are in flight
    #: at once, bounding memory for very long sweeps.
    CHUNK_SIZE = 4

    #: Crashes a single trial must accumulate (across pool rebuilds) to be
    #: quarantined when a crash storm is declared.  Two crashes separate a
    #: systematically crashing payload from an innocent bystander that was
    #: merely in flight when someone else's worker died.
    QUARANTINE_CRASHES = 2

    def __init__(
        self,
        trial_fn: Callable[[np.random.Generator, Any], Any],
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        telemetry: Optional[_events.Telemetry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        validator: Optional[Callable[[Any], Optional[str]]] = None,
        max_rebuilds: int = 3,
        rebuild_window_seconds: float = 60.0,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1 or None, got {workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if fault_plan is not None and fault_plan.has_hang and timeout is None:
            raise ValueError(
                "hang faults require a timeout (they sleep past the deadline; "
                "without one the sweep would genuinely hang)"
            )
        self._trial_fn = trial_fn
        self._workers = workers
        self._timeout = timeout
        self._policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._telemetry = telemetry
        self._fault_plan = fault_plan
        self._validator = validator
        self._max_rebuilds = max_rebuilds
        self._rebuild_window = rebuild_window_seconds
        self._last_stats: Optional[TrialStats] = None

    @property
    def workers(self) -> Optional[int]:
        """Configured worker count (``None`` = inline)."""
        return self._workers

    @property
    def retry_policy(self) -> RetryPolicy:
        """The effective retry policy."""
        return self._policy

    @property
    def last_stats(self) -> Optional[TrialStats]:
        """Throughput counters of the most recent :meth:`run` call."""
        return self._last_stats

    @staticmethod
    def resolve_workers(workers: Optional[int]) -> Optional[int]:
        """Interpret a CLI-style worker count: 0 means "all cores"."""
        if workers is None:
            return None
        if workers == 0:
            return os.cpu_count() or 1
        return workers

    # ------------------------------------------------------------------
    def run(
        self,
        payloads: Sequence[Any],
        seed: int = 0,
        submission_order: Optional[Sequence[int]] = None,
        cache: Optional[Any] = None,
        keys: Optional[Sequence[Optional[str]]] = None,
    ) -> List[TrialResult]:
        """Run one trial per payload; results are ordered by trial index.

        Each trial is a batch of one member (see :meth:`run_batched`).

        ``submission_order`` permutes only the order in which trials are
        handed to the pool (used by the determinism tests to prove the
        results do not depend on it).

        ``cache`` + ``keys`` enable the persistent trial cache: ``keys[i]``
        is the content-hash key of trial ``i`` (``None`` = uncacheable).
        Hits skip execution entirely (``cached=True``, ``attempts=0``);
        fresh successes are journaled via ``cache.put`` as they complete,
        so a killed run keeps every finished trial.  Seeds are spawned for
        the full payload list regardless of hits, keeping results
        bit-identical to an uncached run at any worker count.
        """
        return self._run_guarded(
            payloads,
            functools.partial(_each_member, self._trial_fn),
            None,
            seed,
            submission_order,
            cache,
            keys,
        )

    def run_batched(
        self,
        payloads: Sequence[Any],
        batch_fn: Callable[[Sequence[Any], Sequence[Any]], Sequence[Any]],
        plan: "BatchedTrialPlan",
        seed: int = 0,
        cache: Optional[Any] = None,
        keys: Optional[Sequence[Optional[str]]] = None,
    ) -> List[TrialResult]:
        """Run trials grouped into same-shape batches; per-trial results.

        ``plan`` (a :class:`~repro.parallel.batch.BatchedTrialPlan`) maps
        trial indices into batches; ``batch_fn(seed_seqs, payloads) ->
        values`` (module-level, picklable) executes one whole batch and
        returns one value per member, in member order.

        The contract is :meth:`run`'s: cache hits are served per *member*
        before any batch executes, seeds are spawned for the full payload
        list by trial index (each member receives the same
        ``SeedSequence`` a serial run would), fresh member values are
        validated and journaled individually, and results come back
        ordered by trial index.  A batch is the unit of execution and
        retry: a batch that fails re-submits its unfinished members, and
        one that fails for good surfaces one :class:`TrialError` per
        member (prefixed ``batch of N:``).  Member durations report the
        batch duration split evenly (the journaled per-trial cost a later
        cached run replays).
        """
        from .batch import BatchedTrialPlan  # local: avoid import cycle

        if not isinstance(plan, BatchedTrialPlan):
            raise TypeError(f"plan must be a BatchedTrialPlan, got {type(plan)}")
        return self._run_guarded(payloads, batch_fn, plan, seed, None, cache, keys)

    def _run_guarded(
        self, payloads, batch_fn, plan, seed, submission_order, cache, keys
    ) -> List[TrialResult]:
        """The one prologue and epilogue around every execution."""
        payloads = list(payloads)
        count = len(payloads)
        if keys is not None and len(keys) != count:
            raise ValueError(
                f"need one key per payload: {len(keys)} keys, {count} payloads"
            )
        if plan is not None and not plan.covers(count):
            raise ValueError(f"plan does not partition the {count} payload indices")
        if submission_order is not None and sorted(submission_order) != list(
            range(count)
        ):
            raise ValueError(
                "submission_order must be a permutation of the trial indices"
            )
        if count == 0:
            self._last_stats = TrialStats(0, 0, 0, 0.0, self._workers)
            return []
        start = time.perf_counter()
        sink = self._telemetry if self._telemetry is not None else _events.get_telemetry()
        emitter = _Emitter(sink, count)
        emitter.begin()
        job = _Job(self, payloads, batch_fn, plan, cache, keys, emitter)
        results = job.results
        if cache is not None and keys is not None:
            for index, key in enumerate(keys):
                hit = cache.get(key) if key is not None else None
                if hit is not None:
                    results[index] = TrialResult(
                        index=index,
                        value=hit.value,
                        attempts=0,
                        duration=hit.duration,
                        cached=True,
                    )
                    emitter.cache_hit(results[index])
        if plan is None:
            order = range(count) if submission_order is None else submission_order
            job.items = [(index,) for index in order if results[index] is None]
        else:
            job.items = [
                members
                for members in (
                    tuple(i for i in batch.indices if results[i] is None)
                    for batch in plan.batches
                )
                if members
            ]
        _log.debug(
            "running %d batch(es) of <= %d trial(s) (%s, %d cache hit(s))",
            len(job.items),
            max(map(len, job.items), default=0),
            "inline" if self._workers is None else f"{self._workers} workers",
            emitter.cached,
        )
        if job.items:
            job.seeds = np.random.SeedSequence(seed).spawn(count)
            job.run_local(job.items)
        self._last_stats = TrialStats(
            trials=count,
            failures=sum(1 for r in results if not r.ok),
            retries=sum(max(r.attempts - 1, 0) for r in results),
            elapsed_seconds=time.perf_counter() - start,
            workers=self._workers,
            cache_hits=emitter.cached,
            pool_rebuilds=job.pool_rebuilds,
            degraded=job.degraded,
        )
        _log.debug("run complete: %s", self._last_stats.summary())
        return results  # type: ignore[return-value]

    def run_values(
        self,
        payloads: Sequence[Any],
        seed: int = 0,
        cache: Optional[Any] = None,
        keys: Optional[Sequence[Optional[str]]] = None,
    ) -> List[Any]:
        """Like :meth:`run` but unwrap values, raising on the first failure."""
        results = self.run(payloads, seed=seed, cache=cache, keys=keys)
        for result in results:
            if not result.ok:
                raise TrialFailed(result.error)
        return [result.value for result in results]

    # ------------------------------------------------------------------
    def _fault_for(
        self, index: int, attempt: int, inline: bool
    ) -> Optional[str]:
        """The effective fault to inject into this attempt, if any.

        ``kill`` downgrades to ``raise`` inline: there is no worker process
        to kill, and SIGKILLing the parent would take the sweep with it.
        """
        if self._fault_plan is None:
            return None
        fault = self._fault_plan.fault_for(index, attempt)
        if fault == "io":
            # journal faults fire at cache.put time, not in the trial body
            return None
        if fault == "kill" and inline:
            _log.debug(
                "downgrading kill fault on trial %d to raise (inline mode)",
                index,
            )
            return "raise"
        return fault

    @staticmethod
    def _terminate_workers(executor) -> None:
        """Forcibly kill the pool's worker processes (hard-timeout path).

        Best effort: a worker that cannot be terminated (already reaped,
        permission lost) is logged and skipped so the remaining workers
        still get killed -- but never silently, so a stuck shutdown is
        diagnosable from the log.
        """
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception as exc:  # best effort: keep killing the rest
                _log.warning(
                    "failed to terminate worker %s during pool shutdown: "
                    "%s: %s",
                    getattr(process, "pid", "?"),
                    type(exc).__name__,
                    exc,
                    exc_info=True,
                )


def run_trials(
    trial_fn: Callable[[np.random.Generator, Any], Any],
    payloads: Sequence[Any],
    seed: int = 0,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
) -> List[Any]:
    """One-shot convenience wrapper: run and unwrap, raising on failure."""
    runner = TrialRunner(trial_fn, workers=workers, timeout=timeout)
    return runner.run_values(payloads, seed=seed)
