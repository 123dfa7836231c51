"""Resilience layer: retry policies, fault injection, graceful degradation.

Large Monte-Carlo campaigns (the Table-I grids, the Figure-3 phase
diagrams) are exactly the workloads where a single crashed worker, a
raising trial or one NaN sample used to kill -- or silently poison -- an
hours-long run.  This package makes those sweeps survive partial failure,
and makes the surviving *provable* via deterministic chaos testing:

- :mod:`repro.resilience.retry` -- :class:`RetryPolicy`: max attempts
  and a deterministic, capped exponential backoff;
- :mod:`repro.resilience.faults` -- :class:`FaultPlan`: raise / kill /
  NaN / journal-IO faults keyed by ``(trial index, attempt)`` so chaos
  runs are bit-reproducible (CLI: ``--inject-faults SPEC``);
- :mod:`repro.resilience.supervisor` -- :class:`PoolSupervisor`:
  crash-storm detection over pool rebuilds, driving payload quarantine and
  graceful degradation to inline serial execution;
- :mod:`repro.resilience.validation` -- result validation at the runner
  boundary (NaN/inf/negative throughput -> ``invalid_result``) and
  ``min_success_fraction`` partial-result semantics;
- :mod:`repro.resilience.drain` -- SIGINT/SIGTERM graceful drain leaving a
  resumable ``status="interrupted"`` run manifest.

:class:`ResilienceConfig` bundles the knobs one experiment driver needs,
and is what the CLI flags (``--retries``, ``--backoff``, ``--min-success``,
``--inject-faults``) construct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .drain import SweepInterrupted, interruptible
from .faults import FAULT_KINDS, FaultClause, FaultPlan, FaultSpecError
from .retry import RETRYABLE_KINDS, RetryPolicy
from .supervisor import PoolSupervisor
from .validation import check_min_success, validate_rate

__all__ = [
    "FAULT_KINDS",
    "FaultClause",
    "FaultPlan",
    "FaultSpecError",
    "PoolSupervisor",
    "RETRYABLE_KINDS",
    "ResilienceConfig",
    "RetryPolicy",
    "SweepInterrupted",
    "check_min_success",
    "interruptible",
    "validate_rate",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """The resilience knobs one experiment driver threads to its runner.

    ``min_success_fraction`` belongs to the *driver* (it decides whether
    partial results are acceptable); everything else is forwarded to
    :class:`repro.parallel.TrialRunner` via :meth:`runner_kwargs`.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    fault_plan: Optional[FaultPlan] = None
    min_success_fraction: float = 1.0

    def __post_init__(self):
        if not 0 < self.min_success_fraction <= 1:
            raise ValueError(
                "min_success_fraction must be in (0, 1], got "
                f"{self.min_success_fraction}"
            )

    def runner_kwargs(self) -> dict:
        """Keyword arguments for :class:`repro.parallel.TrialRunner`."""
        return {"retry_policy": self.retry, "fault_plan": self.fault_plan}
