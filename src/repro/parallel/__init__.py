"""Deterministic parallel execution of independent Monte-Carlo trials."""

from .runner import (
    TrialError,
    TrialFailed,
    TrialResult,
    TrialRunner,
    TrialStats,
)

__all__ = [
    "TrialError",
    "TrialFailed",
    "TrialResult",
    "TrialRunner",
    "TrialStats",
]
