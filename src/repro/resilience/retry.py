"""Configurable retry policies with deterministic exponential backoff.

A :class:`RetryPolicy` answers two questions for the trial runner: *should
this failed attempt be retried* (per :class:`~repro.parallel.TrialError`
``kind``) and *how long to wait first*.  The backoff is exponential with an
optional jitter that is **derived from the trial's own seed material**
rather than from wall-clock entropy, so a chaos run's retry schedule -- and
therefore its telemetry trace -- is bit-reproducible: the same trial at the
same attempt always backs off by the same amount, at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

import numpy as np

__all__ = ["RETRYABLE_KINDS", "RetryPolicy"]

#: Every failure kind the runner can surface.  ``exception`` / ``timeout`` /
#: ``worker-crash`` come from the execution itself, ``invalid_result`` from
#: the result-validation boundary (NaN/inf/negative throughput or a value
#: the store journal refused).  ``quarantined`` is *not* listed: it is the
#: terminal verdict of crash-storm quarantine, never retried.
RETRYABLE_KINDS = frozenset(
    {"exception", "timeout", "worker-crash", "invalid_result"}
)


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
        retry.
    backoff_multiplier:
        Growth factor of the delay per additional attempt.
    backoff_cap:
        Upper bound on the (pre-jitter) delay in seconds.
    jitter:
        Fractional jitter amplitude in ``[0, 1]``: the delay is scaled by
        a factor drawn deterministically from the trial's seed material in
        ``[1 - jitter/2, 1 + jitter/2]``.  Deterministic by construction --
        see :meth:`delay`.
    retry_on:
        The :class:`~repro.parallel.TrialError` kinds worth retrying.
        Defaults to every retryable kind (a fault injected on the first
        attempt only is healed by the retry, which is what keeps chaos
        sweeps bit-identical to clean ones).
    """

    max_attempts: int = 2
    backoff_base: float = 0.0
    backoff_multiplier: float = 2.0
    backoff_cap: float = 30.0
    jitter: float = 0.0
    retry_on: FrozenSet[str] = RETRYABLE_KINDS

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_multiplier < 1:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if self.backoff_cap < 0:
            raise ValueError(
                f"backoff_cap must be >= 0, got {self.backoff_cap}"
            )
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        unknown = set(self.retry_on) - RETRYABLE_KINDS
        if unknown:
            raise ValueError(
                f"unknown retryable kind(s) {sorted(unknown)}; "
                f"choose from {sorted(RETRYABLE_KINDS)}"
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
        return attempts < self.max_attempts and kind in self.retry_on

    def delay(
        self,
        attempts: int,
        seed_seq: Optional[np.random.SeedSequence] = None,
    ) -> float:
        """Seconds to back off before the retry following attempt
        ``attempts``.

        The jitter factor is drawn from a generator keyed on the trial's
        :class:`~numpy.random.SeedSequence` state plus the attempt number
        (``generate_state`` is a pure read -- the trial's own stream is
        untouched), so the schedule is a deterministic function of
        ``(master seed, trial index, attempt)``.
        """
        if self.backoff_base <= 0:
            return 0.0
        delay = min(
            self.backoff_cap,
            self.backoff_base * self.backoff_multiplier ** (attempts - 1),
        )
        if self.jitter > 0 and seed_seq is not None:
            entropy = [int(word) for word in seed_seq.generate_state(2)]
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy + [int(attempts)])
            )
            delay *= 1.0 + self.jitter * (float(rng.uniform()) - 0.5)
        return delay
