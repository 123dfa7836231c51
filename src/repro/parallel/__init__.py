"""Deterministic parallel execution of independent Monte-Carlo trials."""

from .batch import BatchedTrialPlan, TrialBatch
from .runner import (
    TrialError,
    TrialFailed,
    TrialResult,
    TrialRunner,
    TrialStats,
    run_trials,
)
from .shm import (
    SharedArrayHandle,
    SharedArrays,
    resolve_array,
    share_arrays,
)

__all__ = [
    "BatchedTrialPlan",
    "SharedArrayHandle",
    "SharedArrays",
    "TrialBatch",
    "TrialError",
    "TrialFailed",
    "TrialResult",
    "TrialRunner",
    "TrialStats",
    "resolve_array",
    "run_trials",
    "share_arrays",
]
