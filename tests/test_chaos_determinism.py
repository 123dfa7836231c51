"""Chaos-determinism acceptance tests.

The resilience layer's contract is that failure handling never perturbs
science: a sweep that suffers injected worker kills, exceptions and NaN
results -- healed by retries -- must produce a :meth:`SweepResult.digest`
bit-identical to a clean serial run, at every worker count; and a sweep
interrupted mid-flight then resumed from its journal must converge to the
same digest as an uninterrupted run.
"""

import pytest

from repro.core.regimes import NetworkParameters
from repro.experiments.delay import compare_delays
from repro.experiments.scaling import sweep_capacity
from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy
from repro.store import RunStore

GRID = [60, 120]
TRIALS = 2
SEED = 3


def _params():
    return NetworkParameters(alpha="1/4", cluster_exponent=1)


def _clean_digest():
    return sweep_capacity(
        _params(), GRID, scheme="A", trials=TRIALS, seed=SEED
    ).digest()


def _chaos_config():
    # one fault per distinct failure mode: a worker kill, an exception and
    # a NaN result, each firing on the first attempt only
    return ResilienceConfig(
        retry=RetryPolicy(max_attempts=3),
        fault_plan=FaultPlan.parse("kill@0,raise@1,nan@2"),
    )


class TestChaosDigestEquality:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_fault_injected_sweep_matches_clean_serial_run(self, workers):
        reference = _clean_digest()
        chaos = sweep_capacity(
            _params(),
            GRID,
            scheme="A",
            trials=TRIALS,
            seed=SEED,
            workers=workers,
            resilience=_chaos_config(),
        )
        assert chaos.digest() == reference
        assert chaos.stats.retries >= 3
        assert chaos.stats.failures == 0

    def test_fault_injected_inline_sweep_matches_too(self):
        chaos = sweep_capacity(
            _params(), GRID, scheme="A", trials=TRIALS, seed=SEED,
            resilience=_chaos_config(),
        )
        assert chaos.digest() == _clean_digest()


class TestChaosWithIncrementalIndex:
    """The packet path under chaos: the delay-comparison sweep runs the
    simulator on its persistent :class:`IncrementalCellGridIndex`.
    Fault-injected parallel runs must reproduce the serial result
    exactly."""

    N = 48
    SLOTS = 120

    def _compare(self, **kwargs):
        return compare_delays(
            self.N, seed=SEED, slots=self.SLOTS, arrival_prob=0.01, **kwargs
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_fault_injected_workers_match_serial_reference(self, workers):
        reference = self._compare()
        chaos = self._compare(
            workers=workers,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=3),
                fault_plan=FaultPlan.parse("kill@0,raise@1"),
            ),
        )
        assert chaos == reference


class _InterruptingStore(RunStore):
    """Delivers a keyboard interrupt once two trials have been journaled."""

    def __init__(self, root):
        super().__init__(root)
        self.puts = 0

    def put(self, key, value, duration):
        if self.puts >= 2:
            raise KeyboardInterrupt
        super().put(key, value, duration)
        self.puts += 1


class TestInterruptedThenResumed:
    def test_resumed_sweep_matches_uninterrupted_digest(self, tmp_path):
        reference = _clean_digest()
        store_dir = tmp_path / "store"

        interrupting = _InterruptingStore(store_dir)
        with pytest.raises(KeyboardInterrupt):
            sweep_capacity(
                _params(), GRID, scheme="A", trials=TRIALS, seed=SEED,
                store=interrupting,
            )

        # the drain recorded a resumable manifest before re-raising
        runs = interrupting.list_runs()
        assert any(run["status"] == "interrupted" for run in runs)

        resumed_store = RunStore(store_dir)
        result = sweep_capacity(
            _params(), GRID, scheme="A", trials=TRIALS, seed=SEED,
            store=resumed_store,
        )
        assert result.digest() == reference
        # the completed prefix was replayed from the journal, not re-run
        assert result.stats.cache_hits >= 2
        assert any(run["status"] == "completed" for run in resumed_store.list_runs())
