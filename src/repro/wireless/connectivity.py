"""Connectivity criteria (Gupta-Kumar critical range; Lemma 10).

For ``n`` uniformly placed static nodes the critical transmission range for
asymptotic connectivity is ``sqrt(log n / (pi n))`` [Gupta & Kumar 1998].
The paper reuses this in two places:

- ``gamma(n) = log m / m`` is the *squared* critical range when the ``m``
  cluster centres are viewed as static nodes (Theorem 1, Lemma 10);
- ``gamma_tilde(n)`` is its in-cluster analogue for ``n/m`` nodes confined to
  radius ``r``.

This module provides the critical range, exact connectivity checks via
union-find, and the minimum connecting range (the longest edge of the
Euclidean minimum spanning tree, computed on torus distances).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..geometry.neighbors import CellGridIndex
from ..geometry.torus import pairwise_distances

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from scipy.sparse import coo_matrix

__all__ = [
    "critical_range",
    "is_connected",
    "minimum_connecting_range",
    "connected_component_count",
]


def critical_range(n: int) -> float:
    """Gupta-Kumar critical transmission range ``sqrt(log n / (pi n))``."""
    if n < 2:
        raise ValueError(f"need at least two nodes, got {n}")
    return math.sqrt(math.log(n) / (math.pi * n))


def _unit_disk_graph(positions: np.ndarray, transmission_range: float) -> coo_matrix:
    """Sparse unit-disk graph (edges iff torus distance ``<= R_T``).

    Edges come from a cell-grid radius query, so memory is proportional to
    the edge count instead of ``n^2``.
    """
    from scipy.sparse import coo_matrix  # local: keep scipy off the import path

    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n = positions.shape[0]
    i, j, _ = CellGridIndex(positions).pairs_within(transmission_range)
    return coo_matrix((np.ones(i.size), (i, j)), shape=(n, n))


def connected_component_count(positions: np.ndarray, transmission_range: float) -> int:
    """Number of connected components of the unit-disk graph at range ``R_T``."""
    if transmission_range <= 0:
        raise ValueError(f"range must be positive, got {transmission_range}")
    from scipy.sparse.csgraph import connected_components  # local: as above

    graph = _unit_disk_graph(positions, transmission_range)
    count, _ = connected_components(graph.tocsr(), directed=False)
    return int(count)


def is_connected(positions: np.ndarray, transmission_range: float) -> bool:
    """Whether the unit-disk graph at range ``R_T`` is connected."""
    return connected_component_count(positions, transmission_range) == 1


def minimum_connecting_range(positions: np.ndarray) -> float:
    """Smallest ``R_T`` making the unit-disk graph connected.

    Equals the longest edge of the Euclidean (torus-metric) minimum spanning
    tree.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if positions.shape[0] < 2:
        return 0.0
    from scipy.sparse.csgraph import minimum_spanning_tree  # local: as above

    distances = pairwise_distances(positions)
    tree = minimum_spanning_tree(distances)
    return float(tree.data.max())
