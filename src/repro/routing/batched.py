"""Trial-batched flow kernels for schemes B and C.

Scheme B spends most of its flow-analysis time in
:meth:`SchemeB.zone_access_vector` (an ``n x k`` masked contact-
probability reduction per realisation), scheme C in its nearest-BS
attach search.  This module provides the batched counterparts used by
``repro.experiments.scaling`` when ``--batch-trials`` groups several
same-shape realisations:

- :func:`batched_zone_access` stacks ``B`` realisations along a leading
  batch axis and reduces them chunk-by-chunk in one pass;
- :func:`scheme_b_flow` runs :meth:`SchemeB.sustainable_rate`'s flow
  analysis on one slice of the batched access vectors (re-exported here
  with :func:`~repro.routing.scheme_b.zone_pair_sessions`, the vectorised
  session count both share);
- :func:`batched_scheme_c_attach` runs scheme C's nearest-same-cluster-BS
  search for a whole batch at once (inject the slices via
  ``SchemeC(..., attach=...)``).

Bit-identity contract: on the canonical ``numpy64`` backend every function
here reproduces the serial per-trial result bit-for-bit
(``tests/test_batched_routing.py``); other backends are tolerance-gated.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..backend import resolve_backend
from ..geometry.neighbors import DEFAULT_CHUNK, batched_masked_nearest
from ..geometry.torus import batched_pairwise_distances
from ..infrastructure.backbone import Backbone
from ..mobility.shapes import MobilityShape
from ..wireless.link_capacity import contact_probability_ms_bs_at_range
from .scheme_b import SchemeB, zone_pair_sessions

__all__ = [
    "batched_zone_access",
    "zone_pair_sessions",
    "scheme_b_flow",
    "batched_scheme_c_attach",
]


def _block_distances(points, others, resolved) -> np.ndarray:
    """Torus distances for one zone block, on the resolved backend.

    numpy backends take an in-place path (same ufuncs in the same order
    as :func:`~repro.geometry.torus.pairwise_distances`, so bit-identical
    on ``numpy64``); device backends reuse the generic batched kernel.
    """
    if resolved.xp is np:
        points = np.asarray(points, dtype=resolved.float_dtype)
        others = np.asarray(others, dtype=resolved.float_dtype)
        dx = points[:, 0, None] - others[None, :, 0]
        dx -= np.round(dx)
        dx *= dx
        dy = points[:, 1, None] - others[None, :, 1]
        dy -= np.round(dy)
        dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx)
    return resolved.from_device(
        batched_pairwise_distances(points[None], others[None], backend=resolved)
    )[0]


def batched_zone_access(
    ms_home: np.ndarray,
    bs_positions: np.ndarray,
    ms_zone: np.ndarray,
    bs_zone: np.ndarray,
    shape: MobilityShape,
    f: float,
    transmission_range: float,
    chunk_size: int = DEFAULT_CHUNK,
    backend=None,
) -> np.ndarray:
    """``mu_i^A`` for a whole batch: ``(B, n)`` access capacities.

    The batched analogue of :meth:`SchemeB.zone_access_vector`, with one
    extra optimisation the per-trial kernel does not attempt:
    **zone-blocked evaluation**.  Only in-zone ``(MS, BS)`` pairs ever
    reach the distance/contact kernels (the serial kernel computes every
    pair and masks afterwards, wasting a ``1 - 1/zones`` fraction of the
    work).  Each block's values are scattered back into a full-width
    ``(rows, k)`` buffer whose masked-out entries are the exact ``0.0``
    the serial ``np.where`` writes, and the reduction runs over those
    same full-width rows -- so slice ``b`` stays bit-identical to the
    serial vector on the canonical backend.  Per-row values remain
    chunk-size independent (the reduction is along the last axis only).
    """
    resolved = resolve_backend(backend)
    ms_home = np.asarray(ms_home, dtype=float)
    bs_positions = np.asarray(bs_positions, dtype=float)
    if ms_home.ndim != 3 or bs_positions.ndim != 3:
        raise ValueError(
            "batched access expects (B, n, 2) homes and (B, k, 2) BSs, got "
            f"{ms_home.shape} and {bs_positions.shape}"
        )
    ms_zone = np.asarray(ms_zone, dtype=int)
    bs_zone = np.asarray(bs_zone, dtype=int)
    batch, n, _ = ms_home.shape
    if ms_zone.shape != (batch, n) or bs_zone.shape[:1] != (batch,):
        raise ValueError("zone arrays must match the batch layout")
    k = bs_positions.shape[1]
    access = np.zeros((batch, n), dtype=resolved.float_dtype)
    rows_per_chunk = max(1, chunk_size)
    for b in range(batch):
        # MSs in a zone with no BS keep the serial all-masked sum: 0.0
        for zone in np.unique(bs_zone[b]):
            rows = np.nonzero(ms_zone[b] == zone)[0]
            if rows.size == 0:
                continue
            cols = np.nonzero(bs_zone[b] == zone)[0]
            homes = ms_home[b, rows]
            stations = bs_positions[b, cols]
            for lo in range(0, rows.size, rows_per_chunk):
                hi = min(rows.size, lo + rows_per_chunk)
                distances = _block_distances(homes[lo:hi], stations, resolved)
                mu = contact_probability_ms_bs_at_range(
                    shape, f, transmission_range, distances
                )
                padded = np.zeros((hi - lo, k), dtype=mu.dtype)
                padded[:, cols] = mu
                access[b, rows[lo:hi]] = padded.sum(axis=-1)
    return access


def scheme_b_flow(
    access: np.ndarray,
    ms_zone: np.ndarray,
    bs_zone: np.ndarray,
    backbone: Backbone,
    destination: np.ndarray,
) -> Tuple[float, float]:
    """``(per_node_rate, generic_rate)`` of scheme B for one realisation.

    :meth:`SchemeB.sustainable_rate` on a precomputed access vector and
    raw zone assignments, so a batched sweep needs no traffic object; the
    generic rate falls back to the per-node rate exactly as
    ``details.get("generic_rate", per_node_rate)`` does.
    """
    result = SchemeB.from_access_vector(ms_zone, bs_zone, access, backbone)._flow(
        destination
    )
    return (
        result.per_node_rate,
        result.details.get("generic_rate", result.per_node_rate),
    )


def batched_scheme_c_attach(
    ms_positions: np.ndarray,
    bs_positions: np.ndarray,
    ms_cluster: np.ndarray,
    bs_cluster: np.ndarray,
    chunk_size: int = 2048,
    backend=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Scheme C's nearest-same-cluster-BS attach for a whole batch.

    Returns ``(cell_of_ms, attach_distance)`` with shapes ``(B, n)``;
    pass slice ``b`` to ``SchemeC(..., attach=(cell[b], distance[b]))``.
    ``chunk_size`` defaults to :attr:`SchemeC._CHUNK` so the per-row
    arithmetic matches the serial search bit-for-bit.
    """
    return batched_masked_nearest(
        ms_positions,
        bs_positions,
        point_labels=ms_cluster,
        other_labels=bs_cluster,
        chunk_size=chunk_size,
        backend=backend,
    )
