"""Per-batch entry points of the scheme B and C flow kernels.

``repro.experiments.scaling`` groups same-``n`` sweep trials into batches
(``--batch-trials``) and calls each function here once per batch.  They
run the per-trial kernels member by member, so a member's value never
depends on the batch it ran in:

- :func:`batched_zone_access` runs :meth:`SchemeB.zone_access_vector` for
  each member;
- :func:`scheme_b_flow` runs :meth:`SchemeB.sustainable_rate` on one
  member's access vector and traffic and returns its ``FlowResult``
  (re-exported here with :func:`~repro.routing.scheme_b.zone_pair_sessions`,
  the vectorised session count both share);
- :func:`batched_scheme_c_attach` runs scheme C's nearest-same-cluster-BS
  search (:func:`~repro.geometry.neighbors.masked_nearest`) for each
  member (inject the results via ``SchemeC(..., attach=...)``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from ..geometry.neighbors import masked_nearest
from ..infrastructure.backbone import Backbone
from ..mobility.shapes import MobilityShape
from .base import FlowResult
from .scheme_b import SchemeB, zone_pair_sessions

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..simulation.traffic import PermutationTraffic

__all__ = [
    "batched_zone_access",
    "zone_pair_sessions",
    "scheme_b_flow",
    "batched_scheme_c_attach",
]


def batched_zone_access(
    ms_home: Sequence[np.ndarray],
    bs_positions: Sequence[np.ndarray],
    ms_zone: Sequence[np.ndarray],
    bs_zone: Sequence[np.ndarray],
    shape: MobilityShape,
    f: float,
    transmission_range: Sequence[float],
) -> List[np.ndarray]:
    """``mu_i^A`` of every member: one :meth:`SchemeB.zone_access_vector`
    call per member.

    Every argument but ``shape`` and ``f`` is a per-member sequence; the
    transmission range is per member because the strong-regime range
    depends on the member's BS count.
    """
    return [
        SchemeB.zone_access_vector(
            home, stations, home_zone, station_zone, shape, f, radius
        )
        for home, stations, home_zone, station_zone, radius in zip(
            ms_home, bs_positions, ms_zone, bs_zone, transmission_range
        )
    ]


def scheme_b_flow(
    access: np.ndarray,
    ms_zone: np.ndarray,
    bs_zone: np.ndarray,
    backbone: Backbone,
    traffic: PermutationTraffic,
) -> FlowResult:
    """Scheme B's flow result for one realisation:
    :meth:`SchemeB.sustainable_rate` on a precomputed access vector and raw
    zone assignments."""
    return SchemeB(ms_zone, bs_zone, access, backbone).sustainable_rate(traffic)


def batched_scheme_c_attach(
    ms_positions: Sequence[np.ndarray],
    bs_positions: Sequence[np.ndarray],
    ms_cluster: Sequence[np.ndarray],
    bs_cluster: Sequence[np.ndarray],
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Scheme C's nearest-same-cluster-BS attach of every member.

    Returns one ``(cell_of_ms, attach_distance)`` pair per member, to pass
    to ``SchemeC(..., attach=...)``.
    """
    return [
        masked_nearest(
            points, others, point_labels=labels, other_labels=other_labels
        )
        for points, others, labels, other_labels in zip(
            ms_positions, bs_positions, ms_cluster, bs_cluster
        )
    ]
