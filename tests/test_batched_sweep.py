"""End-to-end digest equality for trial-batched capacity sweeps.

The headline acceptance test of the batched path: a batched sweep
reproduces the serial sweep digest bit-for-bit at any worker count.
"""

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.regimes import NetworkParameters
from repro.experiments.scaling import (
    _batched_sweep_trial,
    _sweep_trial,
    sweep_capacity,
    sweep_trial_payloads,
)
from repro.experiments.table1 import TABLE1_ROWS
from repro.observability import RecordingTelemetry
from repro.observability.events import BatchDegradedToSerial, using_telemetry
from repro.parallel import TrialRunner
from repro.serve import family_key
from repro.store import RunStore

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
    def test_batched_reproduces_serial_digest(self, workers):
        want = serial_sweep()
        got = serial_sweep(workers=workers, batch_trials=3)
        assert np.array_equal(got.rates, want.rates)
        assert got.digest() == want.digest()

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


class TestSharedCache:
    """Batched and per-trial sweeps key every trial alike, so either one
    warms the store for the other."""

    SWEEPS = {
        "B": dict(parameters=STRONG, scheme="B", seed=42, generic=True),
        "C": dict(
            parameters=TRIVIAL_BS, scheme="C", seed=7,
            build_kwargs={"mobility": "static"},
        ),
    }

    @pytest.mark.parametrize("scheme", ["B", "C"])
    @pytest.mark.parametrize(
        "first, second",
        [(None, 3), (3, None)],
        ids=["serial-then-batched", "batched-then-serial"],
    )
    def test_second_sweep_replays_every_trial(self, tmp_path, scheme, first, second):
        def sweep(batch_trials):
            return sweep_capacity(
                n_values=GRID, trials=3, batch_trials=batch_trials,
                store=tmp_path / "s", **self.SWEEPS[scheme],
            )

        cold, warm = sweep(first), sweep(second)
        assert cold.stats.cache_hits == 0
        assert warm.stats.cache_hits == len(GRID) * 3
        assert warm.digest() == cold.digest()


ROWS = {row.label: row for row in TABLE1_ROWS}


class TestBatchWidthIndependence:
    """A member's value is a function of its payload alone -- never of the
    batch it ran in (a resume at another ``--batch-trials`` replays
    journaled values under the same cache key)."""

    @pytest.mark.parametrize(
        "label, scheme",
        [("weak mobility, with BSs", "B"), ("trivial mobility, with BSs", "C")],
    )
    def test_member_values_identical_at_widths_1_2_3(self, label, scheme):
        payloads = sweep_trial_payloads(
            ROWS[label].parameters, [400], scheme, trials=3, generic=True, seed=7
        )

        def run(batch):
            return _batched_sweep_trial(batch)

        width_3 = run(payloads)
        width_2 = run(payloads[:2]) + run(payloads[2:])
        width_1 = [value for payload in payloads for value in run([payload])]
        assert width_1 == width_2 == width_3
        assert width_1 == [_sweep_trial(payload) for payload in payloads]


class TestSweepBatches:
    """The batches a ``--batch-trials`` sweep hands the runner."""

    @pytest.mark.parametrize(
        "trials, batch_trials", [(3, 2), (4, 2), (4, 3), (2, 5)], ids=str
    )
    def test_batches_stay_within_one_n_and_the_width(
        self, monkeypatch, trials, batch_trials
    ):
        seen = []
        run_batched = TrialRunner.run_batched

        def spy(runner, payloads, batch_fn, batches, **kwargs):
            seen.append((list(payloads), [tuple(batch) for batch in batches]))
            return run_batched(runner, payloads, batch_fn, batches, **kwargs)

        monkeypatch.setattr(TrialRunner, "run_batched", spy)
        grid = [100, 150, 200]
        sweep_capacity(
            STRONG, grid, scheme="B", trials=trials, seed=42, generic=True,
            batch_trials=batch_trials,
        )
        ((payloads, batches),) = seen
        members = sorted(index for batch in batches for index in batch)
        assert members == list(range(len(grid) * trials))
        for batch in batches:
            assert 1 <= len(batch) <= batch_trials
            assert len({payloads[index][1] for index in batch}) == 1
        # no row is split more finely than its width requires
        assert len(batches) == len(grid) * -(-trials // batch_trials)


def test_batch_trials_must_be_at_least_two():
    with pytest.raises(ValueError, match="batch_trials"):
        serial_sweep(batch_trials=1)


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


class TestRemovedBackend:
    """Sweeps compute in float64 only: the float-backend option is gone
    from the API and the CLI, and stored manifests that recorded the
    float64 default still group with new runs."""

    def test_sweep_capacity_takes_no_backend(self):
        with pytest.raises(TypeError):
            serial_sweep(batch_trials=2, backend="numpy32")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--grid", "100,200", "--batch-trials", "2",
             "--backend", "numpy32"],
            ["serve", "query", "--backend", "numpy32"],
        ],
    )
    def test_cli_rejects_backend(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_float64_manifest_shares_the_new_family(self, tmp_path):
        serial_sweep(batch_trials=2, store=tmp_path / "s")
        (manifest,) = RunStore(tmp_path / "s").list_runs()
        assert "backend" not in manifest["config"]

        def stored_with(backend):
            return {**manifest, "config": {**manifest["config"], "backend": backend}}

        assert family_key(stored_with("numpy64")) == family_key(manifest)
        assert family_key(stored_with("numpy32")) != family_key(manifest)
