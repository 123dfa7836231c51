"""Result validation and partial-result (``min_success_fraction``) semantics.

Validation runs at the runner boundary, in the parent, on every freshly
computed trial value: a NaN, infinite or negative throughput becomes a
structured ``TrialError(kind="invalid_result")`` *before* it can poison a
sweep's medians or crash the store journal.  :func:`check_min_success`
then lets experiment drivers keep going on partial results instead of
aborting an hours-long campaign over a handful of failed trials.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence

import numpy as np

from ..observability.log import get_logger

__all__ = [
    "validate_rate",
    "check_min_success",
]

_log = get_logger(__name__)


def validate_rate(value: Any) -> Optional[str]:
    """Default validator for throughput-like trial values.

    Returns an error message for a NaN, infinite or negative numeric
    scalar; ``None`` for anything else (non-numeric values -- panels,
    traces, metric dicts -- pass through untouched; the store journal is
    their backstop).
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float, np.integer, np.floating)):
        as_float = float(value)
        if math.isnan(as_float):
            return "trial returned NaN"
        if math.isinf(as_float):
            return "trial returned an infinite value"
        if as_float < 0:
            return f"trial returned a negative throughput ({as_float!r})"
    return None


def check_min_success(
    results: Sequence[Any],
    min_success_fraction: float,
    context: str = "run",
) -> List[Any]:
    """Enforce partial-result semantics on a list of ``TrialResult``.

    Returns the failed results (possibly empty).  Raises
    :class:`~repro.parallel.TrialFailed` with the first error when the
    success fraction falls below ``min_success_fraction``; otherwise logs a
    warning describing what the run is proceeding without.
    """
    if not 0 < min_success_fraction <= 1:
        raise ValueError(
            f"min_success_fraction must be in (0, 1], got {min_success_fraction}"
        )
    failures = [result for result in results if not result.ok]
    if not failures:
        return failures
    fraction = (len(results) - len(failures)) / len(results)
    if fraction < min_success_fraction:
        from ..parallel.runner import TrialFailed

        raise TrialFailed(failures[0].error)
    _log.warning(
        "%s proceeding with partial results: %d/%d trial(s) failed "
        "(success fraction %.2f >= min %.2f); failed trial indices: %s",
        context,
        len(failures),
        len(results),
        fraction,
        min_success_fraction,
        [failure.error.trial_index for failure in failures],
    )
    return failures

