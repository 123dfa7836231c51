"""Figure 1 reproduction: non-uniformly vs uniformly dense networks.

Figure 1 of the paper contrasts a clustered network whose mobility cannot
bridge the empty space between clusters (left: non-uniformly dense) with one
whose mobility smooths the node distribution over the whole torus (right:
uniformly dense).  We regenerate it quantitatively: both configurations are
realised at the same ``n`` and their local-density fields (Definition 7) are
summarised by the max/min uniformity ratio and the empty-area fraction --
bounded and small for the uniformly dense case, diverging for the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.density import DensityField, density_field
from ..core.regimes import NetworkParameters
from ..mobility.clustered import place_home_points
from ..mobility.shapes import UniformDiskShape
from ..resilience import ResilienceConfig
from ..store import TrialSeed, trial_key
from .recorded import run_recorded

__all__ = [
    "Figure1Panel",
    "make_panel",
    "make_panels",
    "UNIFORM_PARAMS",
    "CLUSTERED_PARAMS",
]

#: Right panel: uniform home-points, ample mobility (strong regime).
UNIFORM_PARAMS = NetworkParameters(alpha="1/8", cluster_exponent=1)

#: Left panel: heavy clustering, mobility too weak to bridge clusters
#: (weak-mobility / non-uniformly dense regime).
CLUSTERED_PARAMS = NetworkParameters(
    alpha="1/2", cluster_exponent="1/4", cluster_radius_exponent="1/2"
)


@dataclass(frozen=True)
class Figure1Panel:
    """One panel of Figure 1: a realised network plus its density summary."""

    label: str
    parameters: NetworkParameters
    home_points: np.ndarray
    positions: np.ndarray
    field: DensityField

    def summary(self) -> str:
        """One-line digest used by the benchmark output."""
        ratio = self.field.uniformity_ratio
        ratio_text = f"{ratio:.1f}" if np.isfinite(ratio) else "inf"
        return (
            f"{self.label:22s} regime={self.parameters.regime.value:8s} "
            f"rho_min={self.field.min:.3f} rho_max={self.field.max:.3f} "
            f"max/min={ratio_text} empty={self.field.empty_fraction:.2%}"
        )


def make_panel(
    parameters: NetworkParameters,
    n: int,
    rng: np.random.Generator,
    label: str,
    grid_side: int = 24,
) -> Figure1Panel:
    """Realise one Figure-1 panel at finite ``n``."""
    realized = parameters.realize(n)
    shape = UniformDiskShape(1.0)
    home_model = place_home_points(rng, n, realized.m, realized.r)
    scale = 1.0 / realized.f
    offsets = shape.sample_offsets(rng, n, scale)
    positions = np.mod(home_model.points + offsets, 1.0)
    field = density_field(
        home_model.points, shape, realized.f, n, grid_side=grid_side
    )
    return Figure1Panel(
        label=label,
        parameters=parameters,
        home_points=home_model.points,
        positions=positions,
        field=field,
    )


def _panel_trial(payload: tuple) -> Figure1Panel:
    """One Figure-1 panel realisation (module-level so it pickles).

    The generator is built from the payload's :class:`TrialSeed`, making
    the panel a pure function of the payload (cacheable by content key).
    """
    parameters, n, label, grid_side, seed = payload
    return make_panel(parameters, n, seed.rng(), label, grid_side=grid_side)


def _panel_key(payload: tuple) -> str:
    """Content-hash cache key of one panel payload."""
    parameters, n, label, grid_side, seed = payload
    return trial_key(
        parameters,
        None,
        n,
        seed,
        extra={"experiment": "figure1", "label": label, "grid_side": grid_side},
    )


def make_panels(
    specs: Sequence[Tuple[NetworkParameters, str]],
    n: int,
    seed: int = 0,
    grid_side: int = 24,
    workers: Optional[int] = None,
    store=None,
    resilience: Optional[ResilienceConfig] = None,
) -> List[Figure1Panel]:
    """Realise several Figure-1 panels as independent parallel trials.

    Each ``(parameters, label)`` spec becomes one :class:`TrialRunner`
    trial carrying its own ``TrialSeed(seed, index)``, so panel contents do
    not depend on the worker count (unlike threading panels through one
    shared generator).
    ``store`` and ``resilience`` take the shared recorded-run path
    (:func:`repro.experiments.recorded.run_recorded`): journaled panels
    replay, an interrupt leaves a resumable ``status="interrupted"``
    manifest, and below ``min_success_fraction`` 1.0 a failed panel is
    dropped from the returned list instead of aborting.
    """
    payloads = [
        (parameters, n, label, grid_side, TrialSeed(seed, index))
        for index, (parameters, label) in enumerate(specs)
    ]
    run = run_recorded(
        _panel_trial,
        payloads,
        _panel_key,
        command="figure1",
        config={
            "labels": [label for _params, label in specs],
            "n": n,
            "seed": seed,
            "grid_side": grid_side,
            "workers": workers,
        },
        span_name="figure1.make_panels",
        workers=workers,
        store=store,
        resilience=resilience,
    )
    run.record()
    return run.values
