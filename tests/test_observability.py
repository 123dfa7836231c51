"""Unit tests for :mod:`repro.observability`.

Covers the event sinks (ordering, composite fan-out, global install), the
JSONL trace round-trip, the progress renderer's math with an injected
clock, the structured logger configuration, and the ``span`` timer.
"""

import io
import json
import logging

import pytest

from repro.observability import (
    CompositeTelemetry,
    JsonlTraceSink,
    NullTelemetry,
    ProgressRenderer,
    RecordingTelemetry,
    SlotBatch,
    SpanFinished,
    SweepProgress,
    TrialCached,
    TrialFailedEvent,
    TrialFinished,
    TrialStarted,
    configure,
    get_logger,
    get_telemetry,
    open_trace,
    set_telemetry,
    span,
    using_telemetry,
)
from repro.observability.progress import format_eta


class TestEvents:
    def test_to_record_is_flat_and_named(self):
        event = TrialFinished(index=3, attempts=1, duration=0.25)
        assert event.to_record() == {
            "event": "trial_finished",
            "index": 3,
            "attempts": 1,
            "duration": 0.25,
        }

    def test_event_names_are_stable(self):
        # the wire names are a public contract of the trace format
        assert TrialStarted.EVENT == "trial_started"
        assert TrialFinished.EVENT == "trial_finished"
        assert TrialCached.EVENT == "trial_cached"
        assert TrialFailedEvent.EVENT == "trial_failed"
        assert SweepProgress.EVENT == "sweep_progress"
        assert SlotBatch.EVENT == "slot_batch"
        assert SpanFinished.EVENT == "span"

    def test_recording_sink_preserves_order(self):
        sink = RecordingTelemetry()
        first = TrialStarted(index=0, attempt=1)
        second = TrialFinished(index=0, attempts=1, duration=0.1)
        sink.emit(first)
        sink.emit(second)
        assert sink.events == [first, second]
        assert sink.of_type(TrialFinished) == [second]

    def test_composite_fans_out_in_registration_order(self):
        left, right = RecordingTelemetry(), RecordingTelemetry()
        sink = CompositeTelemetry([left, right])
        event = TrialStarted(index=1, attempt=1)
        sink.emit(event)
        assert left.events == [event]
        assert right.events == [event]

    def test_null_sink_is_disabled(self):
        assert NullTelemetry().enabled is False
        assert RecordingTelemetry().enabled is True


class TestGlobalSink:
    def test_default_is_null(self):
        assert isinstance(get_telemetry(), NullTelemetry)

    def test_set_returns_previous_and_none_restores_null(self):
        sink = RecordingTelemetry()
        previous = set_telemetry(sink)
        try:
            assert get_telemetry() is sink
        finally:
            assert set_telemetry(None) is sink
        assert isinstance(get_telemetry(), NullTelemetry)
        set_telemetry(previous)

    def test_using_telemetry_restores_on_exit_and_raise(self):
        sink = RecordingTelemetry()
        with using_telemetry(sink):
            assert get_telemetry() is sink
        assert isinstance(get_telemetry(), NullTelemetry)
        with pytest.raises(RuntimeError):
            with using_telemetry(sink):
                raise RuntimeError("boom")
        assert isinstance(get_telemetry(), NullTelemetry)


class TestJsonlTrace:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.emit(TrialStarted(index=0, attempt=1))
            sink.emit(TrialFinished(index=0, attempts=1, duration=0.5))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["event"] for record in records] == [
            "trial_started",
            "trial_finished",
        ]
        assert records[1]["duration"] == 0.5
        assert all("ts" in record for record in records)
        assert sink.emitted == 2

    def test_lazy_open_writes_nothing_without_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        JsonlTraceSink(path).close()
        assert not path.exists()

    def test_open_trace_names_are_unique(self, tmp_path):
        first, second = open_trace(tmp_path), open_trace(tmp_path)
        assert first.path != second.path
        assert first.path.name.startswith("trace-")
        assert first.path.suffix == ".jsonl"


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


def make_renderer(stream=None, min_interval=0.0):
    clock = FakeClock()
    renderer = ProgressRenderer(
        stream=stream if stream is not None else io.StringIO(),
        min_interval=min_interval,
        clock=clock,
    )
    return renderer, clock


class TestProgressMath:
    def test_counters_follow_sweep_progress(self):
        renderer, clock = make_renderer()
        renderer.emit(SweepProgress(done=0, total=8, cached=0, failed=0,
                                    elapsed_seconds=0.0))
        clock.now += 2.0
        renderer.emit(SweepProgress(done=4, total=8, cached=1, failed=1,
                                    elapsed_seconds=2.0))
        assert renderer.total == 8
        assert renderer.done == 4
        assert renderer.trials_per_second == pytest.approx(2.0)
        # the 4 remaining trials must all *execute*, so the projection uses
        # the fresh rate (3 executed / 2 s), not the cache-inflated one
        assert renderer.fresh_trials_per_second == pytest.approx(1.5)
        assert renderer.eta_seconds == pytest.approx(4 / 1.5)
        assert renderer.cache_hit_rate == pytest.approx(0.25)

    def test_eta_ignores_cached_prefix_of_resumed_sweep(self):
        import math

        renderer, clock = make_renderer()
        # a resumed sweep replays 6 of 8 trials from the cache near-instantly
        renderer.emit(SweepProgress(done=0, total=8, cached=0, failed=0,
                                    elapsed_seconds=0.0))
        clock.now += 0.01
        renderer.emit(SweepProgress(done=6, total=8, cached=6, failed=0,
                                    elapsed_seconds=0.01))
        # no fresh trial has completed yet: the ETA is unknown, not ~0
        assert math.isnan(renderer.eta_seconds)
        # one fresh trial lands after 2 s of real execution
        clock.now += 2.0
        renderer.emit(SweepProgress(done=7, total=8, cached=6, failed=0,
                                    elapsed_seconds=2.01))
        assert renderer.fresh_trials_per_second == pytest.approx(1 / 2.01)
        # the last trial is projected at the fresh rate (~2 s), not the
        # replay-inflated overall rate (~0.3 s)
        assert renderer.eta_seconds == pytest.approx(2.01)
        assert renderer.trials_per_second == pytest.approx(7 / 2.01)

    def test_eta_is_zero_when_done(self):
        renderer, clock = make_renderer()
        renderer.emit(SweepProgress(done=0, total=2, cached=0, failed=0,
                                    elapsed_seconds=0.0))
        clock.now += 1.0
        renderer.emit(SweepProgress(done=2, total=2, cached=1, failed=0,
                                    elapsed_seconds=1.0))
        assert renderer.eta_seconds == 0.0

    def test_trial_events_increment_counts(self):
        renderer, clock = make_renderer()
        renderer.emit(TrialFinished(index=0, attempts=1, duration=0.1))
        renderer.emit(TrialCached(index=1, duration=0.1))
        renderer.emit(
            TrialFailedEvent(index=2, kind="exception", message="m",
                             attempts=2, elapsed_seconds=1.0)
        )
        assert (renderer.done, renderer.cached, renderer.failed) == (3, 1, 1)

    def test_rates_are_nan_before_any_completion(self):
        import math

        renderer, _clock = make_renderer()
        assert math.isnan(renderer.trials_per_second)
        assert math.isnan(renderer.eta_seconds)
        assert math.isnan(renderer.cache_hit_rate)

    def test_render_line_contents(self):
        renderer, clock = make_renderer()
        renderer.emit(SweepProgress(done=0, total=4, cached=0, failed=0,
                                    elapsed_seconds=0.0))
        clock.now += 1.0
        renderer.emit(SweepProgress(done=2, total=4, cached=1, failed=1,
                                    elapsed_seconds=1.0))
        line = renderer.render_line()
        assert "2/4" in line
        assert "trials/s" in line
        assert "eta" in line
        assert "cached 1 (50%)" in line
        assert "failed 1" in line

    def test_non_tty_writes_throttled_lines(self):
        stream = io.StringIO()
        clock = FakeClock()
        renderer = ProgressRenderer(stream=stream, min_interval=10.0, clock=clock)
        renderer.emit(SweepProgress(done=0, total=2, cached=0, failed=0,
                                    elapsed_seconds=0.0))
        renderer.emit(SweepProgress(done=1, total=2, cached=0, failed=0,
                                    elapsed_seconds=0.0))  # throttled away
        renderer.close()  # forced final render
        lines = [line for line in stream.getvalue().splitlines() if line]
        assert len(lines) == 2
        assert "1/2" in lines[-1]

    def test_format_eta(self):
        assert format_eta(0) == "0:00:00"
        assert format_eta(71) == "0:01:11"
        assert format_eta(3 * 3600 + 62) == "3:01:02"
        assert format_eta(float("nan")) == "--:--"
        assert format_eta(float("inf")) == "--:--"


class TestConfigureLogging:
    def teardown_method(self):
        # drop the handler installed by the test so later tests (and the
        # CLI tests) start from a clean root logger
        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            if getattr(handler, "_repro_configured", False):
                root.removeHandler(handler)

    def test_get_logger_children_hang_off_repro(self):
        assert get_logger().name == "repro"
        assert get_logger("repro.store").name == "repro.store"
        assert get_logger("custom").name == "repro.custom"

    def test_text_handler_writes_to_stream(self):
        stream = io.StringIO()
        configure("INFO", stream=stream)
        get_logger("repro.test").info("hello %s", "world")
        assert "hello world" in stream.getvalue()
        assert "INFO" in stream.getvalue()

    def test_json_lines_parse(self):
        stream = io.StringIO()
        configure("DEBUG", json=True, stream=stream)
        get_logger("repro.test").warning("watch out")
        record = json.loads(stream.getvalue().splitlines()[0])
        assert record["level"] == "WARNING"
        assert record["logger"] == "repro.test"
        assert record["message"] == "watch out"
        assert "ts" in record

    def test_reconfigure_replaces_handler(self):
        first, second = io.StringIO(), io.StringIO()
        configure("INFO", stream=first)
        configure("INFO", stream=second)
        get_logger("repro.test").info("once")
        assert first.getvalue() == ""
        assert second.getvalue().count("once") == 1

    def test_level_threshold_applies(self):
        stream = io.StringIO()
        configure("ERROR", stream=stream)
        get_logger("repro.test").warning("suppressed")
        assert stream.getvalue() == ""

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError):
            configure("LOUD")


class TestSpan:
    def test_emits_span_event_and_elapsed(self):
        sink = RecordingTelemetry()
        with span("phase-x", telemetry=sink) as timing:
            pass
        assert "elapsed_seconds" in timing
        events = sink.of_type(SpanFinished)
        assert len(events) == 1
        assert events[0].name == "phase-x"
        assert events[0].elapsed_seconds >= 0

    def test_uses_global_sink_by_default(self):
        sink = RecordingTelemetry()
        with using_telemetry(sink):
            with span("global-phase"):
                pass
        assert [e.name for e in sink.of_type(SpanFinished)] == ["global-phase"]

    def test_emits_even_when_body_raises(self):
        sink = RecordingTelemetry()
        with pytest.raises(RuntimeError):
            with span("failing-phase", telemetry=sink):
                raise RuntimeError("boom")
        assert len(sink.of_type(SpanFinished)) == 1

    def test_logs_duration(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro"):
            with span("logged-phase"):
                pass
        assert any("logged-phase" in record.message for record in caplog.records)

    def test_null_sink_skips_emission(self):
        # smoke: the default null sink must not blow up nor record
        with span("unobserved"):
            pass
