"""Telemetry and structured logging for long-running sweeps.

The reproduction runs multi-hour Monte-Carlo sweeps (parallel trial fan-out,
resumable stores, per-slot packet simulation); this subsystem is the
measurement substrate those runs report through:

- :mod:`repro.observability.log` -- the package-wide structured logger:
  ``get_logger(__name__)`` per-module child loggers under the ``repro``
  root, and a :func:`configure` entry point (level + optional JSON lines)
  wired to the CLI ``--log-level``/``--log-json`` flags.  ``print`` is
  reserved for CLI *result* output in ``__main__.py``; everything
  diagnostic goes through these loggers (enforced by
  ``scripts/check_no_stray_prints.py``).
- :mod:`repro.observability.events` -- typed telemetry events
  (``trial_started`` / ``trial_finished`` / ``trial_cached`` /
  ``trial_failed``, the resilience lifecycle ``trial_retried`` /
  ``fault_injected`` / ``pool_rebuilt`` / ``degraded_to_serial`` /
  ``batch_degraded_to_serial``, ``sweep_progress``, ``slot_batch``,
  ``journal_appended``, the serve layer's ``index_refreshed`` /
  ``query_executed`` / ``regression_scan``, ``span``) plus the
  :class:`Telemetry` sink protocol.  The process-wide current sink
  defaults to :class:`NullTelemetry` (zero overhead: instrumented hot
  paths check ``sink.enabled`` before building events) and is swapped
  with :func:`set_telemetry` / :func:`using_telemetry`.
- :mod:`repro.observability.progress` -- a human progress renderer
  (trials/s, ETA, cache-hit rate, failure count) consuming the trial
  events on stderr.
- :mod:`repro.observability.trace` -- a JSONL trace sink whose files land
  next to the store's run manifests, making interrupted sweeps diagnosable
  post-hoc (every trial appears as started + finished/cached/failed).
- :mod:`repro.observability.timing` -- the :func:`span` context manager
  timing one phase: logs the duration and emits a ``span`` event.

Emission is parent-process-only: :class:`repro.parallel.TrialRunner`
emits as futures complete, so pool workers never touch the sink.
"""

from .events import (
    BackendSelected,
    BatchDegradedToSerial,
    CompositeTelemetry,
    DegradedToSerial,
    FaultInjected,
    IndexRefreshed,
    JournalAppended,
    NullTelemetry,
    PoolRebuilt,
    QueryExecuted,
    RecordingTelemetry,
    RegressionScan,
    SlotBatch,
    SpanFinished,
    SweepProgress,
    Telemetry,
    TelemetryEvent,
    TrialCached,
    TrialFailedEvent,
    TrialFinished,
    TrialRetried,
    TrialStarted,
    get_telemetry,
    set_telemetry,
    using_telemetry,
)
from .log import JsonLogFormatter, configure, get_logger
from .progress import ProgressRenderer
from .timing import span
from .trace import JsonlTraceSink, open_trace

__all__ = [
    "BackendSelected",
    "BatchDegradedToSerial",
    "CompositeTelemetry",
    "DegradedToSerial",
    "FaultInjected",
    "IndexRefreshed",
    "JournalAppended",
    "JsonLogFormatter",
    "JsonlTraceSink",
    "NullTelemetry",
    "PoolRebuilt",
    "ProgressRenderer",
    "QueryExecuted",
    "RecordingTelemetry",
    "RegressionScan",
    "SlotBatch",
    "SpanFinished",
    "SweepProgress",
    "Telemetry",
    "TelemetryEvent",
    "TrialCached",
    "TrialFailedEvent",
    "TrialFinished",
    "TrialRetried",
    "TrialStarted",
    "configure",
    "get_logger",
    "get_telemetry",
    "open_trace",
    "set_telemetry",
    "span",
    "using_telemetry",
]
