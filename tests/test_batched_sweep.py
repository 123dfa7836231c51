"""End-to-end digest equality for trial-batched capacity sweeps.

The headline acceptance test of the batched path: a ``numpy64`` batched
sweep reproduces the serial sweep digest bit-for-bit at any worker
count, while non-canonical backends are tolerance-gated and live in a
disjoint digest/cache namespace.
"""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.core.regimes import NetworkParameters
from repro.experiments.scaling import (
    _batched_sweep_trial,
    _sweep_trial,
    _sweep_trial_keys,
    sweep_capacity,
    sweep_trial_payloads,
)
from repro.experiments.table1 import TABLE1_ROWS
from repro.observability import RecordingTelemetry
from repro.observability.events import (
    BackendSelected,
    BatchDegradedToSerial,
    using_telemetry,
)

STRONG = NetworkParameters(
    alpha="1/4", cluster_exponent=1, bs_exponent="1/2", backbone_exponent=1
)
TRIVIAL_BS = NetworkParameters(
    alpha="3/4",
    cluster_exponent="1/2",
    cluster_radius_exponent="3/8",
    bs_exponent="3/4",
    backbone_exponent=1,
    validate=False,
)

GRID = [100, 200]


def serial_sweep(**kwargs):
    return sweep_capacity(
        STRONG, GRID, scheme="B", trials=4, seed=42, generic=True, **kwargs
    )


class TestDigestEquality:
    @pytest.mark.parametrize("workers", [None, 1, 2, 4])
    def test_batched_numpy64_reproduces_serial_digest(self, workers):
        want = serial_sweep()
        got = serial_sweep(workers=workers, batch_trials=3)
        assert np.array_equal(got.rates, want.rates)
        assert got.digest() == want.digest()
        assert got.backend is None  # canonical runs carry no backend tag

    def test_scheme_c_batched_matches_serial(self):
        kwargs = dict(
            parameters=TRIVIAL_BS,
            n_values=GRID,
            scheme="C",
            trials=3,
            seed=7,
            build_kwargs={"mobility": "static"},
        )
        want = sweep_capacity(**kwargs)
        got = sweep_capacity(**kwargs, batch_trials=3)
        assert np.array_equal(got.rates, want.rates)
        assert got.digest() == want.digest()

    def test_batch_width_does_not_matter(self):
        assert (
            serial_sweep(batch_trials=2).digest()
            == serial_sweep(batch_trials=4).digest()
        )


ROWS = {row.label: row for row in TABLE1_ROWS}


class TestBatchWidthIndependence:
    """A member's value is a function of its payload and backend alone --
    never of the batch it ran in (a resume at another ``--batch-trials``
    replays journaled values under the same cache key)."""

    @pytest.mark.parametrize(
        "label, scheme",
        [("weak mobility, with BSs", "B"), ("trivial mobility, with BSs", "C")],
    )
    @pytest.mark.parametrize("backend", ["numpy64", "numpy32"])
    def test_member_values_identical_at_widths_1_2_3(self, label, scheme, backend):
        payloads = sweep_trial_payloads(
            ROWS[label].parameters, [400], scheme, trials=3, generic=True, seed=7
        )

        def run(batch):
            return _batched_sweep_trial(None, batch, backend=backend)

        width_3 = run(payloads)
        width_2 = run(payloads[:2]) + run(payloads[2:])
        width_1 = [value for payload in payloads for value in run([payload])]
        assert width_1 == width_2 == width_3
        per_trial = [_sweep_trial(None, payload) for payload in payloads]
        if backend == "numpy64":
            assert width_1 == per_trial
        elif scheme == "B":
            # a width-1 numpy32 batch really runs in float32
            assert width_1 != per_trial

    def test_numpy32_sweep_digest_independent_of_batch_trials(self):
        def digest(batch_trials):
            return sweep_capacity(
                ROWS["weak mobility, with BSs"].parameters, [400], "B",
                trials=3, seed=7, generic=True,
                batch_trials=batch_trials, backend="numpy32",
            ).digest()

        assert digest(2) == digest(3)


class TestNonCanonicalBackend:
    def test_numpy32_within_rtol_but_disjoint_digest(self):
        want = serial_sweep()
        got = serial_sweep(batch_trials=3, backend="numpy32")
        rtol = get_backend("numpy32").tolerance("scheme_rate")
        assert np.allclose(got.rates, want.rates, rtol=rtol, atol=1e-9)
        assert got.digest() != want.digest()
        assert got.backend == "numpy32"

    def test_cache_keys_are_namespaced(self):
        payloads = sweep_trial_payloads(
            STRONG, GRID, "B", trials=2, generic=True, seed=42
        )
        canonical = _sweep_trial_keys(payloads)
        gated = _sweep_trial_keys(payloads, backend="numpy32")
        assert set(canonical).isdisjoint(gated)

    def test_backend_requires_batching(self):
        with pytest.raises(ValueError, match="batch_trials"):
            serial_sweep(backend="numpy32")

    def test_batch_trials_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="batch_trials"):
            serial_sweep(batch_trials=1)

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            serial_sweep(batch_trials=2, backend="no-such-backend")


class TestTelemetry:
    def test_backend_selected_emitted_once(self):
        sink = RecordingTelemetry()
        with using_telemetry(sink):
            serial_sweep(batch_trials=3, backend="numpy32")
        events = sink.of_type(BackendSelected)
        assert len(events) == 1
        assert events[0].backend == "numpy32"
        assert not events[0].canonical
        assert events[0].batch_trials == 3

    def test_serial_sweep_reports_canonical_zero_width(self):
        sink = RecordingTelemetry()
        with using_telemetry(sink):
            serial_sweep()
        events = sink.of_type(BackendSelected)
        assert len(events) == 1
        assert events[0].backend == "numpy64"
        assert events[0].canonical
        assert events[0].batch_trials == 0


class TestSerialFallbackWarning:
    def test_scheme_without_batched_kernel_emits_degradation_event(
        self, caplog
    ):
        sink = RecordingTelemetry()
        with using_telemetry(sink):
            with caplog.at_level(
                "WARNING", logger="repro.experiments.scaling"
            ):
                result = sweep_capacity(
                    STRONG, GRID, scheme="A", trials=2, seed=5,
                    batch_trials=3,
                )
        events = sink.of_type(BatchDegradedToSerial)
        assert len(events) == 1
        assert events[0].scheme == "A"
        assert events[0].batch_trials == 3
        assert events[0].reason == "no_batched_kernel"
        assert any(
            "serially member-by-member" in record.message
            for record in caplog.records
        )
        # the fallback is still correct, just not vectorized
        want = sweep_capacity(STRONG, GRID, scheme="A", trials=2, seed=5)
        assert result.digest() == want.digest()

    def test_batched_scheme_does_not_emit_degradation(self):
        sink = RecordingTelemetry()
        with using_telemetry(sink):
            serial_sweep(batch_trials=3)
        assert sink.of_type(BatchDegradedToSerial) == []
