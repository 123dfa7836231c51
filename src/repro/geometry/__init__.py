"""Torus geometry, square tessellations, and the cell-grid neighbor index."""

from .neighbors import (
    CellGridIndex,
    adjacency_lists,
    masked_nearest,
    pair_distances,
)
from .tessellation import SquareTessellation
from .torus import pairwise_distances, torus_distance, wrap

__all__ = [
    "CellGridIndex",
    "SquareTessellation",
    "adjacency_lists",
    "masked_nearest",
    "pair_distances",
    "pairwise_distances",
    "torus_distance",
    "wrap",
]
