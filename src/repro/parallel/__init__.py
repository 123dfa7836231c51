"""Deterministic parallel execution of independent Monte-Carlo trials."""

from .batch import BatchedTrialPlan, TrialBatch
from .runner import (
    TrialError,
    TrialFailed,
    TrialResult,
    TrialRunner,
    TrialStats,
)

__all__ = [
    "BatchedTrialPlan",
    "TrialBatch",
    "TrialError",
    "TrialFailed",
    "TrialResult",
    "TrialRunner",
    "TrialStats",
]
