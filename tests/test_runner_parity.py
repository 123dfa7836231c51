"""A width-1 batch fails exactly as a serial trial always has.

:meth:`TrialRunner.run` executes every trial as a batch of one member.
These tests pin, for every failure kind, the :class:`TrialError` (kind,
message, attempts) and the telemetry event sequence the per-trial path
reported before batches became the only unit of execution.  The expected
values are literals recorded from that earlier path; a width-1 batch adds
no ``batch of 1:`` prefix and no extra event.

``worker-crash`` and ``quarantined`` need a worker process to die, so they
only exist with a pool.  Inline, the same ``kill`` fault downgrades to a
raise and surfaces as ``exception``.
"""

from dataclasses import asdict

import pytest

from repro.observability import RecordingTelemetry
from repro.parallel import TrialRunner
from repro.resilience import FaultPlan, RetryPolicy, validate_rate


def _raise(payload):
    raise ValueError("deliberate failure")


def _value(payload):
    return payload


#: name -> (trial function, payload, runner keyword arguments, runner
#: class attributes)
CASES = {
    "exception": (_raise, 0.0, {}, {}),
    "invalid_result": (_value, -1.0, {"validator": validate_rate}, {}),
    "worker-crash": (_value, 1.0, {"fault_plan": "kill@0x9"}, {}),
    "quarantined": (
        _value,
        1.0,
        {"fault_plan": "kill@0x9", "retry_policy": RetryPolicy(max_attempts=5)},
        {"MAX_REBUILDS": 2, "REBUILD_WINDOW_SECONDS": 3600.0},
    ),
}

#: Event fields that carry wall-clock time (not reproducible).
_TIMING = ("elapsed_seconds", "duration")


def observe(mode, name):
    """``(kind, message, attempts)`` of the failed trial and the event
    sequence, timing fields dropped."""
    trial, payload, kwargs, attributes = CASES[name]
    kwargs = dict(kwargs)
    if "fault_plan" in kwargs:
        kwargs["fault_plan"] = FaultPlan.parse(kwargs["fault_plan"])
    kwargs.setdefault("retry_policy", RetryPolicy(max_attempts=2))
    sink = RecordingTelemetry()
    runner = type("ConfiguredRunner", (TrialRunner,), attributes)(
        trial,
        workers=None if mode == "inline" else 2,
        telemetry=sink,
        **kwargs,
    )
    [result] = runner.run([payload])
    error = result.error
    events = [
        (event.EVENT,)
        + tuple(
            value for field, value in asdict(event).items() if field not in _TIMING
        )
        for event in sink.events
    ]
    return (error.kind, error.message, error.attempts), events


_BEGIN = ("sweep_progress", 0, 1, 0, 0)
_END = ("sweep_progress", 1, 1, 0, 1)
_RAISE = "RuntimeError: injected fault: trial 0 raises"
_NEGATIVE = "trial returned a negative throughput (-1.0)"
_STORM = (
    "payload crashed 2 worker(s); quarantined after 2 pool rebuild(s) (crash storm)"
)


def _retried_twice(kind, message):
    """Two attempts, the first retried: the exception/invalid_result
    sequence, identical inline and on a pool."""
    return (
        (kind, message, 2),
        [
            _BEGIN,
            ("trial_started", 0, 1),
            ("trial_retried", 0, 1, kind, 0.0),
            ("trial_started", 0, 2),
            ("trial_failed", 0, kind, message, 2),
            _END,
        ],
    )


#: Recorded from the per-trial path before it became a width-1 batch.
EXPECTED = {
    ("inline", "exception"): _retried_twice("exception", "ValueError: deliberate failure"),
    ("inline", "invalid_result"): _retried_twice("invalid_result", _NEGATIVE),
    ("inline", "worker-crash"): (
        ("exception", _RAISE, 2),
        [
            _BEGIN,
            ("trial_started", 0, 1),
            ("fault_injected", 0, 1, "raise"),
            ("trial_retried", 0, 1, "exception", 0.0),
            ("trial_started", 0, 2),
            ("fault_injected", 0, 2, "raise"),
            ("trial_failed", 0, "exception", _RAISE, 2),
            _END,
        ],
    ),
    ("inline", "quarantined"): (
        ("exception", _RAISE, 5),
        [_BEGIN]
        + [
            event
            for attempt in range(1, 5)
            for event in (
                ("trial_started", 0, attempt),
                ("fault_injected", 0, attempt, "raise"),
                ("trial_retried", 0, attempt, "exception", 0.0),
            )
        ]
        + [
            ("trial_started", 0, 5),
            ("fault_injected", 0, 5, "raise"),
            ("trial_failed", 0, "exception", _RAISE, 5),
            _END,
        ],
    ),
    ("pool", "exception"): _retried_twice("exception", "ValueError: deliberate failure"),
    ("pool", "invalid_result"): _retried_twice("invalid_result", _NEGATIVE),
    ("pool", "worker-crash"): (
        ("worker-crash", "worker process died mid-trial", 2),
        [
            _BEGIN,
            ("trial_started", 0, 1),
            ("fault_injected", 0, 1, "kill"),
            ("trial_retried", 0, 1, "worker-crash", 0.0),
            ("pool_rebuilt", 1, 0),
            ("trial_started", 0, 2),
            ("fault_injected", 0, 2, "kill"),
            ("trial_failed", 0, "worker-crash", "worker process died mid-trial", 2),
            _END,
            ("pool_rebuilt", 2, 0),
        ],
    ),
    ("pool", "quarantined"): (
        ("quarantined", _STORM, 2),
        [
            _BEGIN,
            ("trial_started", 0, 1),
            ("fault_injected", 0, 1, "kill"),
            ("trial_retried", 0, 1, "worker-crash", 0.0),
            ("pool_rebuilt", 1, 0),
            ("trial_started", 0, 2),
            ("fault_injected", 0, 2, "kill"),
            ("trial_retried", 0, 2, "worker-crash", 0.0),
            ("pool_rebuilt", 2, 0),
            ("degraded_to_serial", 2, (0,)),
            ("trial_failed", 0, "quarantined", _STORM, 2),
            _END,
        ],
    ),
}


@pytest.mark.parametrize("mode", ["inline", "pool"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_width_one_failure_matches_the_serial_path(mode, name):
    error, events = observe(mode, name)
    expected_error, expected_events = EXPECTED[(mode, name)]
    assert error == expected_error
    assert not error[1].startswith("batch of")
    assert events == expected_events
