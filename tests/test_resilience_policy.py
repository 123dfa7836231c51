"""Unit tests of the resilience primitives.

:class:`RetryPolicy` (attempt accounting, deterministic capped backoff),
:class:`FaultPlan` (spec grammar, matching, round-trip) and
:class:`PoolSupervisor` (sliding-window crash-storm detection) are pure
logic -- everything here runs without a pool.
"""

import pytest

from repro.resilience import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpecError,
    PoolSupervisor,
    RETRYABLE_KINDS,
    ResilienceConfig,
    RetryPolicy,
)
from repro.resilience.retry import BACKOFF_CAP, BACKOFF_MULTIPLIER


class TestRetryPolicy:
    def test_defaults_match_legacy_single_retry(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 2
        assert policy.retries == 1
        assert policy.should_retry("exception", 1)
        assert not policy.should_retry("exception", 2)

    def test_from_retries_round_trip(self):
        policy = RetryPolicy.from_retries(3)
        assert policy.max_attempts == 4
        assert policy.retries == 3

    def test_zero_retries_never_retries(self):
        policy = RetryPolicy.from_retries(0)
        assert not policy.should_retry("exception", 1)

    def test_quarantined_is_never_retryable(self):
        assert "quarantined" not in RETRYABLE_KINDS
        assert not RetryPolicy(max_attempts=10).should_retry("quarantined", 1)

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_attempts": 0}, {"backoff_base": -1.0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_zero_base_means_immediate_retry(self):
        assert RetryPolicy().delay(1) == 0.0

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(max_attempts=10, backoff_base=1.0)
        assert policy.delay(1) == 1.0
        assert policy.delay(2) == 2.0
        assert policy.delay(3) == 4.0
        assert policy.delay(5) == 16.0
        assert policy.delay(6) == 30.0  # capped
        assert policy.delay(60) == 30.0

    def test_growth_factor_and_cap_are_constants(self):
        assert BACKOFF_MULTIPLIER == 2.0
        assert BACKOFF_CAP == 30.0


class TestFaultPlanGrammar:
    def test_single_index(self):
        plan = FaultPlan.parse("kill@0")
        assert plan.fault_for(0, 1) == "kill"
        assert plan.fault_for(0, 2) is None  # default: first attempt only
        assert plan.fault_for(1, 1) is None

    def test_range(self):
        plan = FaultPlan.parse("raise@2-5")
        assert plan.fault_for(1, 1) is None
        assert all(plan.fault_for(i, 1) == "raise" for i in range(2, 6))
        assert plan.fault_for(6, 1) is None

    def test_stride_and_attempt_count(self):
        plan = FaultPlan.parse("nan@0-10:2x2")
        assert plan.fault_for(4, 1) == "nan"
        assert plan.fault_for(4, 2) == "nan"
        assert plan.fault_for(4, 3) is None
        assert plan.fault_for(5, 1) is None  # odd index, stride 2

    def test_wildcard(self):
        plan = FaultPlan.parse("kill@*x99")
        assert plan.fault_for(12345, 50) == "kill"

    def test_multiple_clauses_first_match_wins(self):
        plan = FaultPlan.parse("io@1,raise@0-3")
        assert plan.fault_for(1, 1) == "io"
        assert plan.fault_for(2, 1) == "raise"

    def test_describe_round_trips(self):
        spec = "kill@0,raise@2-5,nan@0-10:2x2,io@*"
        assert FaultPlan.parse(spec).describe() == spec
        assert FaultPlan.parse(spec) == FaultPlan.parse(
            FaultPlan.parse(spec).describe()
        )

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "   ",
            "bogus@1",
            "kill",
            "kill@",
            "kill@5-2",  # descending range
            "kill@1x0",  # zero attempts
            "kill@1-4:0",  # zero stride
            "kill@a-b",
            "agent-kill@0",  # no agent-level fault kinds
            "agent-hang@0",
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)

    def test_fault_kinds(self):
        assert FAULT_KINDS == ("raise", "kill", "nan", "io")

    def test_all_kinds_parse(self):
        for kind in FAULT_KINDS:
            assert FaultPlan.parse(f"{kind}@0").clauses[0].kind == kind


class TestPoolSupervisor:
    def test_storm_declared_at_threshold(self):
        clock = iter([0.0, 1.0, 2.0]).__next__
        supervisor = PoolSupervisor(threshold=3, window_seconds=60.0, clock=clock)
        assert supervisor.record_rebuild() is False
        assert supervisor.record_rebuild() is False
        assert supervisor.record_rebuild() is True
        assert supervisor.rebuilds == 3

    def test_old_rebuilds_fall_out_of_the_window(self):
        times = iter([0.0, 1.0, 100.0, 101.0])
        supervisor = PoolSupervisor(
            threshold=3, window_seconds=10.0, clock=times.__next__
        )
        assert supervisor.record_rebuild() is False
        assert supervisor.record_rebuild() is False
        # 100.0: the first two rebuilds are > 10 s old, window holds only 1
        assert supervisor.record_rebuild() is False
        assert supervisor.record_rebuild() is False
        assert supervisor.rebuilds == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            PoolSupervisor(threshold=0, window_seconds=60.0)
        with pytest.raises(ValueError):
            PoolSupervisor(threshold=3, window_seconds=0.0)


class TestResilienceConfig:
    def test_defaults(self):
        config = ResilienceConfig()
        assert config.retry.max_attempts == 2
        assert config.fault_plan is None
        assert config.min_success_fraction == 1.0

    def test_min_success_fraction_validated(self):
        with pytest.raises(ValueError):
            ResilienceConfig(min_success_fraction=0.0)
        with pytest.raises(ValueError):
            ResilienceConfig(min_success_fraction=1.5)

    def test_runner_kwargs_threads_the_policy(self):
        plan = FaultPlan.parse("raise@0")
        config = ResilienceConfig(retry=RetryPolicy(max_attempts=4), fault_plan=plan)
        kwargs = config.runner_kwargs()
        assert kwargs["retry_policy"].max_attempts == 4
        assert kwargs["fault_plan"] is plan
        assert "min_success_fraction" not in kwargs  # driver-side knob
