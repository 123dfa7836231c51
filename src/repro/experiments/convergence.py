"""Finite-size convergence study: how fast measured slopes approach theory.

Every order statement in the paper is exact only as ``n -> infinity``; at
simulation sizes the measured log-log slopes carry systematic drifts (the
min-over-resources concentration bias quantified in EXPERIMENTS.md).  This
harness measures the *local* slope of ``lambda(n)`` on sliding windows of a
geometric grid, exposing the drift toward the asymptotic exponent -- the
quantitative footing for the tolerance used by the Table-I benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.regimes import NetworkParameters
from ..resilience import ResilienceConfig, validate_rate
from ..store import content_digest
from ..utils.fitting import fit_power_law
from .recorded import run_recorded
from .scaling import (
    _sweep_trial,
    _sweep_trial_key,
    median_rates,
    sweep_trial_payloads,
    theory_order,
)

__all__ = ["ConvergenceStudy", "windowed_slopes"]

@dataclass(frozen=True)
class ConvergenceStudy:
    """Local slopes on sliding n-windows plus the asymptotic target."""

    parameters: NetworkParameters
    scheme: str
    n_values: np.ndarray
    rates: np.ndarray
    window_centers: np.ndarray
    window_slopes: np.ndarray
    theory_exponent: float

    @property
    def final_error(self) -> float:
        """|last-window slope - theory|."""
        return abs(float(self.window_slopes[-1]) - self.theory_exponent)

    def drift(self) -> float:
        """Signed change of the local slope from the first window to the
        last; negative values mean the slope is still descending toward a
        more negative asymptote."""
        return float(self.window_slopes[-1] - self.window_slopes[0])

    def rows(self) -> List[list]:
        """Result-table rows: window centre, local slope, error vs theory."""
        return [
            [
                int(center),
                f"{slope:+.3f}",
                f"{abs(slope - self.theory_exponent):.3f}",
            ]
            for center, slope in zip(self.window_centers, self.window_slopes)
        ]


def windowed_slopes(
    parameters: NetworkParameters,
    n_values: Sequence[int],
    scheme: str = "A",
    window: int = 3,
    trials: int = 3,
    seed: int = 0,
    build_kwargs: Optional[dict] = None,
    generic: bool = False,
    workers: Optional[int] = None,
    store=None,
    resilience: Optional[ResilienceConfig] = None,
) -> ConvergenceStudy:
    """Measure ``lambda(n)`` on the grid and fit slopes per sliding window.

    ``window`` consecutive grid points feed each local fit; windows slide by
    one point.  Needs ``len(n_values) >= window >= 2``.  ``workers`` fans
    the trials out over a process pool; each payload carries its trial's
    seed, so the slopes do not depend on the worker count (see
    :class:`repro.parallel.TrialRunner`).  ``store`` and
    ``resilience`` take the shared recorded-run path
    (:func:`repro.experiments.recorded.run_recorded`), including its
    resumable ``status="interrupted"`` manifest.  A convergence study
    shares its trial keys with :func:`~.scaling.sweep_capacity`, so a sweep
    over the same family/grid/seed warms the study's cache and vice versa;
    failed trials tolerated under ``min_success_fraction`` are excluded
    from the window medians.
    """
    n_values = np.asarray(sorted(n_values), dtype=int)
    if window < 2 or window > n_values.shape[0]:
        raise ValueError(
            f"window must be in [2, {n_values.shape[0]}], got {window}"
        )
    payloads = sweep_trial_payloads(
        parameters, n_values, scheme, trials, build_kwargs, generic, seed=seed
    )
    config = {
        "scheme": scheme,
        "n_values": [int(n) for n in n_values],
        "window": window,
        "trials": trials,
        "seed": seed,
        "build_kwargs": build_kwargs or {},
        "generic": generic,
        "workers": workers,
    }
    run = run_recorded(
        _sweep_trial,
        payloads,
        _sweep_trial_key,
        command="convergence",
        config=config,
        span_name="convergence.windowed_slopes",
        workers=workers,
        store=store,
        resilience=resilience,
        parameters=parameters,
        validator=validate_rate,
    )
    rates = median_rates(run, n_values.shape[0])
    run.record(digest=content_digest([float(rate) for rate in rates]))
    centers, slopes = [], []
    for start in range(n_values.shape[0] - window + 1):
        chunk_n = n_values[start:start + window]
        chunk_rate = rates[start:start + window]
        if np.any(chunk_rate <= 0):
            continue
        fit = fit_power_law(chunk_n, chunk_rate)
        centers.append(float(np.exp(np.mean(np.log(chunk_n)))))
        slopes.append(fit.exponent)
    theory = float(theory_order(parameters, scheme).poly_exponent)
    return ConvergenceStudy(
        parameters=parameters,
        scheme=scheme,
        n_values=n_values,
        rates=rates,
        window_centers=np.array(centers),
        window_slopes=np.array(slopes),
        theory_exponent=theory,
    )
