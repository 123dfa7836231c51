"""Unit-torus geometry with wrap-around distances.

The paper's network extension ``O`` is a unit torus (Definition 1): a square
``[0, 1)^2`` with opposite edges identified, which removes boundary effects
from the analysis.  All position arrays in this package are ``(..., 2)``
float arrays of torus coordinates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "mod1",
    "wrap",
    "torus_delta",
    "torus_distance",
    "pairwise_distances",
    "batched_pairwise_distances",
    "within_range",
    "random_points",
    "disk_sample",
]


def mod1(values) -> np.ndarray:
    """``np.mod(values, 1.0)``, bit for bit, as ``values - floor(values)``.

    Both are exact for ``values >= 0``; for negative values both round the
    same real number ``values + 1`` once (so tiny negatives give exactly
    1.0, as ``np.mod`` does).  Integers and signed zeros give ``+0``,
    infinities and NaN give NaN.  Several times faster than ``np.mod``,
    whose float remainder goes through ``fmod`` and a sign fix-up.

    >>> mod1(np.array([1.25, -0.25]))
    array([0.25, 0.75])
    """
    values = np.asarray(values)
    if values.dtype.kind != "f":
        values = values.astype(float)
    floor = np.floor(values)
    if floor.ndim == 0:
        return values - floor
    # subtract into the floor's buffer: one temporary fewer
    return np.subtract(values, floor, out=floor)


def wrap(points: np.ndarray) -> np.ndarray:
    """Map coordinates into the fundamental domain ``[0, 1)^2``.

    >>> wrap(np.array([1.25, -0.25]))
    array([0.25, 0.75])
    """
    wrapped = mod1(points)
    # the mod maps tiny negative values to exactly 1.0; fold those back.
    return np.where(wrapped >= 1.0, 0.0, wrapped)


def torus_delta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shortest displacement vector(s) from ``b`` to ``a`` on the torus.

    Each component lies in ``[-1/2, 1/2)``.  Supports numpy broadcasting on
    leading axes.
    """
    delta = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return delta - np.round(delta)


def torus_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geodesic (wrap-around Euclidean) distance between point arrays.

    >>> round(float(torus_distance(np.array([0.05, 0.5]), np.array([0.95, 0.5]))), 9)
    0.1
    """
    delta = torus_delta(a, b)
    return np.sqrt(np.sum(delta * delta, axis=-1))


def pairwise_distances(points: np.ndarray, others: Optional[np.ndarray] = None) -> np.ndarray:
    """All torus distances between two point sets.

    Returns an ``(len(points), len(others))`` matrix; ``others`` defaults to
    ``points`` (self-distances on the diagonal are zero).

    Memory is ``O(len(points) * len(others))``; for the node counts used in
    the benchmarks (up to a few thousand) this is the fastest option.  The
    kernel is :func:`batched_pairwise_distances` on two 2-D point sets.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    others = points if others is None else np.atleast_2d(np.asarray(others, dtype=float))
    return batched_pairwise_distances(points, others)


def batched_pairwise_distances(
    points: np.ndarray,
    others: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Torus distances between point sets stacked along leading axes.

    ``points`` is ``(..., n, 2)`` and ``others`` (default ``points``) is
    ``(..., k, 2)``; the result is ``(..., n, k)``, and every slice is the
    distance matrix of :func:`pairwise_distances`.

    The evaluation is per-axis (two temporaries) rather than one broadcast
    ``(..., n, k, 2)`` displacement tensor: it performs the same
    ``dx*dx + dy*dy`` accumulation in the same order -- bit-identical
    results -- at roughly 4x the throughput, and this is the inner kernel
    of every per-slot scheduling decision.
    """
    points = np.asarray(points, dtype=float)
    others = points if others is None else np.asarray(others, dtype=float)
    dx = points[..., :, 0, None] - others[..., None, :, 0]
    dx -= np.round(dx)
    dx *= dx
    dy = points[..., :, 1, None] - others[..., None, :, 1]
    dy -= np.round(dy)
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def within_range(
    points: np.ndarray, others: Optional[np.ndarray], radius: float
) -> np.ndarray:
    """Boolean adjacency: ``[i, j]`` true when ``d(points[i], others[j]) <= radius``."""
    return pairwise_distances(points, others) <= radius


def random_points(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` points uniform on the unit torus, shape ``(size, 2)``."""
    return rng.random((size, 2))


def disk_sample(
    rng: np.random.Generator, centers: np.ndarray, radius: float
) -> np.ndarray:
    """One uniform sample in the disk of ``radius`` around each center.

    Points are wrapped back onto the torus.  ``centers`` has shape ``(k, 2)``
    and the result matches it.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    count = centers.shape[0]
    angle = rng.random(count) * 2.0 * np.pi
    rho = radius * np.sqrt(rng.random(count))
    offsets = np.stack([rho * np.cos(angle), rho * np.sin(angle)], axis=-1)
    return wrap(centers + offsets)
