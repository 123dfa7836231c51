"""Typed telemetry events and the sink protocol.

Every long-running layer of the reproduction reports through these events:
the :class:`repro.parallel.TrialRunner` emits the per-trial lifecycle
(``trial_started`` / ``trial_finished`` / ``trial_cached`` /
``trial_failed``) plus ``sweep_progress`` counters, the
:class:`repro.simulation.engine.SlottedSimulator` emits ``slot_batch``
timing, the :class:`repro.store.RunStore` emits ``journal_appended``, and
:func:`repro.observability.timing.span` emits ``span`` durations.

Sinks implement :class:`Telemetry` (a single ``emit(event)``); the
process-wide *current* sink defaults to :class:`NullTelemetry` and is
swapped by the CLI (or tests) with :func:`set_telemetry` /
:func:`using_telemetry`.  Hot paths check ``sink.enabled`` before
constructing an event, so the default costs one attribute read per
emission site.  All emission happens in the parent process -- pool workers
never see the sink (it is not pickled into them).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, ClassVar, Dict, Iterable, List, Optional

__all__ = [
    "TelemetryEvent",
    "TrialStarted",
    "TrialFinished",
    "TrialCached",
    "TrialFailedEvent",
    "TrialRetried",
    "FaultInjected",
    "PoolRebuilt",
    "DegradedToSerial",
    "BatchDegradedToSerial",
    "SweepProgress",
    "SlotBatch",
    "JournalAppended",
    "IndexRefreshed",
    "QueryExecuted",
    "RegressionScan",
    "SpanFinished",
    "Telemetry",
    "NullTelemetry",
    "RecordingTelemetry",
    "CompositeTelemetry",
    "get_telemetry",
    "set_telemetry",
    "using_telemetry",
]


@dataclass(frozen=True)
class TelemetryEvent:
    """Base of all telemetry events; ``EVENT`` is the stable wire name."""

    EVENT: ClassVar[str] = "event"

    def to_record(self) -> Dict[str, Any]:
        """Flat JSON-ready dict: ``{"event": <name>, **fields}``."""
        return {"event": self.EVENT, **asdict(self)}


@dataclass(frozen=True)
class TrialStarted(TelemetryEvent):
    """One trial attempt was handed to a worker (or started inline)."""

    EVENT: ClassVar[str] = "trial_started"
    index: int
    attempt: int


@dataclass(frozen=True)
class TrialFinished(TelemetryEvent):
    """One trial completed successfully (``duration`` = in-worker seconds)."""

    EVENT: ClassVar[str] = "trial_finished"
    index: int
    attempts: int
    duration: float


@dataclass(frozen=True)
class TrialCached(TelemetryEvent):
    """One trial was served from the persistent store without executing.

    ``duration`` is the *original* (uncached) execution's seconds, as
    journaled by the store.
    """

    EVENT: ClassVar[str] = "trial_cached"
    index: int
    duration: float


@dataclass(frozen=True)
class TrialFailedEvent(TelemetryEvent):
    """One trial failed for good (retries exhausted).

    ``elapsed_seconds`` is the wall-clock time at the point of failure
    (the last attempt's runtime), so an interrupted sweep's trace shows
    whether a trial died instantly or after a long run.
    """

    EVENT: ClassVar[str] = "trial_failed"
    index: int
    kind: str
    message: str
    attempts: int
    elapsed_seconds: float


@dataclass(frozen=True)
class TrialRetried(TelemetryEvent):
    """One failed attempt is being retried (``delay_seconds`` = backoff).

    ``kind`` is the failure kind of the attempt being retried; the retry
    itself surfaces later as ``trial_started`` with the next attempt
    number.
    """

    EVENT: ClassVar[str] = "trial_retried"
    index: int
    attempt: int
    kind: str
    delay_seconds: float


@dataclass(frozen=True)
class FaultInjected(TelemetryEvent):
    """The fault-injection harness armed one deterministic fault.

    Emitted from the parent at submission (or journal) time, so chaos
    traces record exactly which ``(trial, attempt)`` pairs were sabotaged.
    ``kind`` is the *effective* fault (a ``kill`` downgrades to ``raise``
    in inline mode, where there is no worker process to kill).
    """

    EVENT: ClassVar[str] = "fault_injected"
    index: int
    attempt: int
    kind: str


@dataclass(frozen=True)
class PoolRebuilt(TelemetryEvent):
    """The worker pool broke and was rebuilt.

    ``rebuilds`` counts rebuilds so far in this run; ``inflight`` is how
    many trials died with the pool (each re-queued or failed).
    """

    EVENT: ClassVar[str] = "pool_rebuilt"
    rebuilds: int
    inflight: int


@dataclass(frozen=True)
class DegradedToSerial(TelemetryEvent):
    """A crash storm was detected: the runner abandoned the worker pool.

    ``quarantined`` lists the trial indices implicated in repeated crashes
    (surfaced as ``kind="quarantined"`` errors); every other unfinished
    trial continues inline in the parent process.
    """

    EVENT: ClassVar[str] = "degraded_to_serial"
    rebuilds: int
    quarantined: tuple


@dataclass(frozen=True)
class BatchDegradedToSerial(TelemetryEvent):
    """``--batch-trials`` fell back to per-trial execution.

    The batched path covers schemes B/C only; any other scheme executes
    its trials one by one, ignoring the requested ``--batch-trials``.  ``scheme`` names the
    offender, ``batch_trials`` the requested width, ``reason`` why the
    batch path could not apply.
    """

    EVENT: ClassVar[str] = "batch_degraded_to_serial"
    scheme: str
    batch_trials: int
    reason: str


@dataclass(frozen=True)
class SweepProgress(TelemetryEvent):
    """Aggregate counters of one runner invocation, emitted as trials land."""

    EVENT: ClassVar[str] = "sweep_progress"
    done: int
    total: int
    cached: int
    failed: int
    elapsed_seconds: float


@dataclass(frozen=True)
class SlotBatch(TelemetryEvent):
    """Timing of one :meth:`SlottedSimulator.run` batch of slots."""

    EVENT: ClassVar[str] = "slot_batch"
    slots: int
    elapsed_seconds: float
    total_slots: int
    created: int
    delivered: int


@dataclass(frozen=True)
class JournalAppended(TelemetryEvent):
    """One completed trial was durably appended to the store journal."""

    EVENT: ClassVar[str] = "journal_appended"
    key: str
    bytes: int
    duration: float


@dataclass(frozen=True)
class IndexRefreshed(TelemetryEvent):
    """The serve index reconciled itself against the manifest directory.

    ``manifests`` is the number of manifests on disk after the refresh;
    ``parsed`` counts how many were actually (re-)read -- the incremental
    path parses only new or changed files -- and ``removed`` how many
    indexed entries vanished from disk.
    """

    EVENT: ClassVar[str] = "index_refreshed"
    manifests: int
    parsed: int
    removed: int
    elapsed_seconds: float


@dataclass(frozen=True)
class QueryExecuted(TelemetryEvent):
    """One serve query ran against the index."""

    EVENT: ClassVar[str] = "query_executed"
    matched: int
    total: int
    elapsed_seconds: float


@dataclass(frozen=True)
class RegressionScan(TelemetryEvent):
    """One cross-run regression detection pass completed.

    ``regressions`` counts confirmed findings (digest drifts plus
    slowdowns) across ``families`` cache-key families covering ``runs``
    comparable manifests.
    """

    EVENT: ClassVar[str] = "regression_scan"
    families: int
    runs: int
    regressions: int
    elapsed_seconds: float


@dataclass(frozen=True)
class SpanFinished(TelemetryEvent):
    """One named :func:`~repro.observability.timing.span` phase completed."""

    EVENT: ClassVar[str] = "span"
    name: str
    elapsed_seconds: float


class Telemetry:
    """Event sink protocol: subclasses override :meth:`emit`.

    ``enabled`` lets hot paths skip event construction entirely when the
    sink discards everything (the :class:`NullTelemetry` default).
    """

    enabled: bool = True

    def emit(self, event: TelemetryEvent) -> None:
        """Consume one event (base implementation discards it)."""

    def close(self) -> None:
        """Release any resources (base implementation: nothing)."""

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullTelemetry(Telemetry):
    """The no-op default sink: ``enabled`` is False, ``emit`` discards."""

    enabled = False


class RecordingTelemetry(Telemetry):
    """Append every event to :attr:`events` (ordering-sensitive tests)."""

    def __init__(self) -> None:
        self.events: List[TelemetryEvent] = []

    def emit(self, event: TelemetryEvent) -> None:
        self.events.append(event)

    def of_type(self, *types) -> List[TelemetryEvent]:
        """The recorded events that are instances of ``types``, in order."""
        return [event for event in self.events if isinstance(event, types)]


class CompositeTelemetry(Telemetry):
    """Fan one event stream out to several sinks, in registration order."""

    def __init__(self, sinks: Iterable[Telemetry]):
        self.sinks: List[Telemetry] = list(sinks)

    def emit(self, event: TelemetryEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


_NULL = NullTelemetry()
_current: Telemetry = _NULL


def get_telemetry() -> Telemetry:
    """The process-wide current sink (a :class:`NullTelemetry` by default)."""
    return _current


def set_telemetry(sink: Optional[Telemetry]) -> Telemetry:
    """Install ``sink`` as the current sink (``None`` restores the null
    sink) and return the previously installed one."""
    global _current
    previous = _current
    _current = sink if sink is not None else _NULL
    return previous


@contextmanager
def using_telemetry(sink: Optional[Telemetry]):
    """Temporarily install ``sink`` as the current sink."""
    previous = set_telemetry(sink)
    try:
        yield get_telemetry()
    finally:
        set_telemetry(previous)
