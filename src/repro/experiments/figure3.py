"""Figure 3 reproduction: the two capacity phase-diagram panels.

The left panel of Figure 3 shows the uniformly dense capacity when the
MS-BS *access* phase is the infrastructure bottleneck (``phi >= 0``); the
right panel shows the *backbone-limited* case (``phi < 0``; the panel's 3/4
intercept at ``alpha = 1/2`` identifies ``phi = -1/4``).  Each panel
partitions the ``(alpha, K)`` square into a mobility-dominant and an
infrastructure-dominant region separated by a straight line.

Besides the exact analytic surfaces, :func:`simulated_spot_checks` measures
flow-level capacities at a few grid points and confirms the predicted
dominant term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from ..core.phase_diagram import PhaseDiagram, compute_phase_diagram, dominance
from ..core.regimes import NetworkParameters
from ..resilience import ResilienceConfig
from ..simulation.network import HybridNetwork
from ..store import TrialSeed, trial_key
from .recorded import run_recorded

__all__ = ["Figure3", "compute_figure3", "simulated_spot_checks", "SpotCheck"]

#: Panel parameters: access-limited (left) and backbone-limited (right).
LEFT_PHI = Fraction(0)
RIGHT_PHI = Fraction(-1, 4)


@dataclass(frozen=True)
class Figure3:
    """Both panels of Figure 3."""

    left: PhaseDiagram
    right: PhaseDiagram

    def lines(self) -> List[str]:
        """Text rendering of both panels."""
        out = [f"left panel (phi = {self.left.phi}): boundary K = 1 - alpha"]
        out.append(self.left.ascii_render())
        out.append("")
        out.append(
            f"right panel (phi = {self.right.phi}): boundary K = "
            f"{1 - self.right.phi} - alpha"
        )
        out.append(self.right.ascii_render())
        return out


def compute_figure3(grid_points: int = 21) -> Figure3:
    """The exact Figure-3 panels on a ``grid_points``-per-axis lattice."""
    return Figure3(
        left=compute_phase_diagram(LEFT_PHI, grid_points),
        right=compute_phase_diagram(RIGHT_PHI, grid_points),
    )


@dataclass(frozen=True)
class SpotCheck:
    """One simulated point of the phase diagram."""

    alpha: Fraction
    bs_exponent: Fraction
    phi: Fraction
    predicted_region: str
    scheme_a_rate: float
    scheme_b_rate: float

    @property
    def measured_region(self) -> str:
        """Which measured term dominates at this finite ``n``."""
        if self.scheme_a_rate > self.scheme_b_rate:
            return "mobility"
        if self.scheme_b_rate > self.scheme_a_rate:
            return "infrastructure"
        return "tie"

    @property
    def agrees(self) -> bool:
        """Whether measurement matches the analytic region."""
        return self.measured_region == self.predicted_region


def _spot_check_trial(payload: tuple) -> SpotCheck:
    """Measure one phase-diagram point (module-level so it pickles).

    The generator is built from the per-point seed carried in the payload
    (the historical ``seed + index`` derivation), keeping spot checks
    bit-compatible with the serial implementation and identical at any
    worker count.
    """
    alpha, big_k, phi, n, point_seed = payload
    rng = np.random.default_rng(point_seed)
    params = NetworkParameters(
        alpha=alpha,
        cluster_exponent=1,
        bs_exponent=big_k,
        backbone_exponent=phi,
    )
    net = HybridNetwork.build(params, n, rng)
    traffic = net.sample_traffic()
    rate_a = net.scheme_a().sustainable_rate(traffic).per_node_rate
    rate_b = net.scheme_b().sustainable_rate(traffic).per_node_rate
    return SpotCheck(
        alpha=params.alpha,
        bs_exponent=params.bs_exponent,
        phi=params.backbone_exponent,
        predicted_region=dominance(
            params.alpha, params.bs_exponent, params.backbone_exponent
        ),
        scheme_a_rate=rate_a,
        scheme_b_rate=rate_b,
    )


def _spot_check_key(payload: tuple) -> str:
    """Content-hash cache key of one spot check.

    The point seed is the full randomness of a spot check (the trial
    rebuilds its generator from it), so it doubles as the seed slot of the
    key.
    """
    alpha, big_k, phi, n, point_seed = payload
    return trial_key(
        {"alpha": alpha, "K": big_k, "phi": phi},
        "A-vs-B",
        n,
        TrialSeed(point_seed, 0),
        extra={"experiment": "figure3-spot-check"},
    )


def simulated_spot_checks(
    points: List[Tuple[str, str, str]],
    n: int,
    seed: int = 0,
    workers: Optional[int] = None,
    store=None,
    resilience: Optional[ResilienceConfig] = None,
) -> List[SpotCheck]:
    """Measure scheme A vs scheme B rates at selected ``(alpha, K, phi)``.

    Each point should sit strictly inside a region (not on a boundary).
    The points are independent trials, so ``workers`` fans them out over a
    process pool; each point carries its own seed (``seed + index``),
    making the checks identical at any worker count.  ``store`` and
    ``resilience`` take the shared recorded-run path
    (:func:`repro.experiments.recorded.run_recorded`): spot checks keyed by
    ``(alpha, K, phi, n, point seed)`` replay, an interrupt leaves a
    resumable ``status="interrupted"`` manifest, and below
    ``min_success_fraction`` 1.0 a failed point is dropped instead of
    aborting the panel.
    """
    payloads = [
        (alpha, big_k, phi, n, seed + index)
        for index, (alpha, big_k, phi) in enumerate(points)
    ]
    run = run_recorded(
        _spot_check_trial,
        payloads,
        _spot_check_key,
        command="figure3-spot-checks",
        config={
            "points": [list(point) for point in points],
            "n": n,
            "seed": seed,
            "workers": workers,
        },
        span_name="figure3.spot_checks",
        workers=workers,
        store=store,
        resilience=resilience,
    )
    run.record()
    return run.values
