"""Batches go through the same retry, fault and validation path as trials.

A batch is the unit of execution and retry: a fault armed for
``(trial i, attempt a)`` fires on the batch attempt holding member ``i``,
and a retry re-submits only the batch's unfinished members, each carrying
its own seed -- so a fault-injected batched sweep heals to the clean serial
digest, and a member the validator rejects is retried like a serial trial.
"""

from repro.core.regimes import NetworkParameters
from repro.experiments.scaling import sweep_capacity
from repro.observability import (
    FaultInjected,
    RecordingTelemetry,
    TrialRetried,
    using_telemetry,
)
from repro.parallel import TrialRunner
from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy
from repro.store import TrialSeed

#: Table I's weak-mobility-with-BSs family, served by scheme B.
WEAK = NetworkParameters(
    alpha="3/8",
    cluster_exponent="1/4",
    cluster_radius_exponent="1/4",
    bs_exponent="7/8",
    backbone_exponent=1,
)
GRID = [100, 200]
SEED = 11


def test_fault_injected_batched_pool_sweep_heals_to_the_serial_digest():
    # the generic-MS rate: the strict minimum is 0.0 at these sizes, which
    # would make digest equality hold for any values
    clean = sweep_capacity(
        WEAK, GRID, scheme="B", trials=2, seed=SEED, generic=True
    )
    assert (clean.rates > 0).all()
    sink = RecordingTelemetry()
    with using_telemetry(sink):
        chaos = sweep_capacity(
            WEAK,
            GRID,
            scheme="B",
            trials=2,
            seed=SEED,
            generic=True,
            workers=2,
            batch_trials=2,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=3),
                fault_plan=FaultPlan.parse("kill@0,raise@1,nan@2"),
            ),
        )
    assert chaos.digest() == clean.digest()
    # one event per armed fault, each on its trial's first attempt
    assert sorted(
        (event.index, event.attempt, event.kind)
        for event in sink.of_type(FaultInjected)
    ) == [(0, 1, "kill"), (1, 1, "raise"), (2, 1, "nan")]
    # every fault was healed by a retry (a kill may take a bystander
    # batch down with the pool, so more retries are possible)
    assert chaos.stats.failures == 0
    assert chaos.stats.retries >= 3
    assert not chaos.stats.degraded


def _trial(payload):
    offset, seed = payload
    return float(seed.rng().random()) + offset


def _batch(payloads):
    return [_trial(payload) for payload in payloads]


def _run_width_four(validator, workers=None):
    offsets = [1.0, 10.0, 1.0, 1.0]
    payloads = [(offset, TrialSeed(5, i)) for i, offset in enumerate(offsets)]
    sink = RecordingTelemetry()
    runner = TrialRunner(_trial, workers=workers, telemetry=sink, validator=validator)
    results = runner.run_batched(payloads, _batch, [(0, 1, 2, 3)])
    serial = TrialRunner(_trial).run(payloads)
    return results, serial, runner.last_stats, sink


def test_validator_rejection_of_one_member_is_retried_alone():
    rejected = set()

    def reject_once(value):
        if value > 5 and value not in rejected:
            rejected.add(value)
            return "too big (first time)"
        return None

    for workers in (None, 2):
        rejected.clear()
        results, serial, stats, sink = _run_width_four(reject_once, workers)
        assert all(result.ok for result in results)
        assert [result.value for result in results] == [r.value for r in serial]
        assert [result.attempts for result in results] == [1, 2, 1, 1]
        assert stats.retries == 1 and stats.failures == 0
        assert [
            (event.index, event.attempt, event.kind)
            for event in sink.of_type(TrialRetried)
        ] == [(1, 1, "invalid_result")]


def test_persistently_rejected_member_fails_after_the_policy_budget():
    results, _serial, stats, _sink = _run_width_four(
        lambda value: "too big" if value > 5 else None
    )
    assert [result.ok for result in results] == [True, False, True, True]
    error = results[1].error
    assert (error.kind, error.message, error.attempts) == (
        "invalid_result",
        "too big",
        2,
    )
    assert stats.retries == 1 and stats.failures == 1
