"""Retry policies with deterministic exponential backoff.

A :class:`RetryPolicy` answers two questions for the trial runner: *should
this failed attempt be retried* and *how long to wait first*.  The backoff
is a pure function of the attempt number -- no wall-clock entropy -- so a
chaos run's retry schedule, and therefore its telemetry trace, is
bit-reproducible at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BACKOFF_CAP", "BACKOFF_MULTIPLIER", "RETRYABLE_KINDS", "RetryPolicy"]

#: Every failure kind the runner can surface.  ``exception`` /
#: ``worker-crash`` come from the execution itself, ``invalid_result`` from
#: the result-validation boundary (NaN/inf/negative throughput or a value
#: the store journal refused).  ``quarantined`` is *not* listed: it is the
#: terminal verdict of crash-storm quarantine, never retried.
RETRYABLE_KINDS = frozenset({"exception", "worker-crash", "invalid_result"})

#: Growth factor of the backoff delay per additional attempt.
BACKOFF_MULTIPLIER = 2.0

#: Upper bound on one backoff delay, in seconds.
BACKOFF_CAP = 30.0


@dataclass(frozen=True)
class RetryPolicy:
    """When and how to retry a failed trial attempt.

    Parameters
    ----------
    max_attempts:
        Total attempts granted to a trial (first run included).  The
        historical runner default (one retry) is ``max_attempts=2``.
    backoff_base:
        Seconds to wait before the first retry; ``0`` (the default)
        disables sleeping entirely, matching the historical immediate
        retry.  The retry after attempt ``k`` waits
        ``min(BACKOFF_CAP, backoff_base * BACKOFF_MULTIPLIER**(k - 1))``.
    """

    max_attempts: int = 2
    backoff_base: float = 0.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )

    @classmethod
    def from_retries(cls, retries: int, backoff_base: float = 0.0) -> "RetryPolicy":
        """The policy of the CLI's ``--retries N``: ``N`` extra attempts."""
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        return cls(max_attempts=retries + 1, backoff_base=backoff_base)

    @property
    def retries(self) -> int:
        """Extra attempts beyond the first (the ``--retries`` view)."""
        return self.max_attempts - 1

    def should_retry(self, kind: str, attempts: int) -> bool:
        """Whether a trial that failed with ``kind`` after ``attempts``
        attempts gets another one."""
        return attempts < self.max_attempts and kind in RETRYABLE_KINDS

    def delay(self, attempts: int) -> float:
        """Seconds to back off before the retry following attempt
        ``attempts``."""
        if self.backoff_base <= 0:
            return 0.0
        return min(
            BACKOFF_CAP, self.backoff_base * BACKOFF_MULTIPLIER ** (attempts - 1)
        )
