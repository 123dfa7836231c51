"""Regular square tessellations of the unit torus.

Two tessellation granularities appear in the paper:

- cells of area ``(16 + beta) * gamma(n)`` for the concentration results
  (Lemma 1, Lemma 13);
- "squarelets" of area ``Theta(1/f^2(n))`` for routing scheme A
  (Definition 11), i.e. cells matching the mobility radius so a node whose
  home-point lies in a cell visits the neighbouring cells.

Both are instances of :class:`SquareTessellation`.  Cells are indexed
``(row, col)`` and flattened row-major; all index arithmetic wraps around the
torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from .torus import mod1

__all__ = ["SquareTessellation", "tessellation_for_area", "tessellation_for_cell_side"]


@dataclass(frozen=True)
class SquareTessellation:
    """A ``cells_per_side x cells_per_side`` grid of square cells on the torus."""

    cells_per_side: int

    def __post_init__(self):
        if self.cells_per_side < 1:
            raise ValueError(
                f"cells_per_side must be >= 1, got {self.cells_per_side}"
            )

    # ------------------------------------------------------------------
    # basic quantities
    # ------------------------------------------------------------------
    @property
    def cell_count(self) -> int:
        """Total number of cells."""
        return self.cells_per_side ** 2

    @property
    def cell_side(self) -> float:
        """Side length of one cell."""
        return 1.0 / self.cells_per_side

    @property
    def cell_area(self) -> float:
        """Area of one cell."""
        return self.cell_side ** 2

    # ------------------------------------------------------------------
    # point <-> cell mapping
    # ------------------------------------------------------------------
    def cell_of(self, points: np.ndarray) -> np.ndarray:
        """Flat cell index for each point, shape ``(len(points),)``.

        Points are wrapped onto the torus first, so any real coordinates are
        accepted.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        grid = np.floor(mod1(points) * self.cells_per_side).astype(int)
        # guard against points == 1.0 after float rounding
        np.clip(grid, 0, self.cells_per_side - 1, out=grid)
        return grid[:, 1] * self.cells_per_side + grid[:, 0]

    def flat_index(self, row: int, col: int) -> int:
        """Flat index of cell ``(row, col)`` (wrapping)."""
        side = self.cells_per_side
        return (row % side) * side + (col % side)

    def rowcol(self, flat: int) -> Tuple[int, int]:
        """``(row, col)`` of a flat index."""
        return divmod(flat % self.cell_count, self.cells_per_side)

    def center(self, flat: int) -> np.ndarray:
        """Center coordinates of a cell."""
        row, col = self.rowcol(flat)
        half = 0.5 * self.cell_side
        return np.array([col * self.cell_side + half, row * self.cell_side + half])

    def centers(self) -> np.ndarray:
        """Centers of all cells, shape ``(cell_count, 2)``, flat order."""
        side = self.cells_per_side
        offset = (np.arange(side) + 0.5) * self.cell_side
        xx, yy = np.meshgrid(offset, offset)  # yy varies with row
        return np.stack([xx.ravel(), yy.ravel()], axis=-1)

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------
    def counts(self, points: np.ndarray) -> np.ndarray:
        """Number of points per cell, shape ``(cell_count,)``."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[0] == 0:
            return np.zeros(self.cell_count, dtype=int)
        return np.bincount(self.cell_of(points), minlength=self.cell_count)

    def members(self, points: np.ndarray) -> List[np.ndarray]:
        """Indices of the points in each cell (list of arrays, flat order)."""
        cells = self.cell_of(np.atleast_2d(np.asarray(points, dtype=float)))
        order = np.argsort(cells, kind="stable")
        sorted_cells = cells[order]
        boundaries = np.searchsorted(sorted_cells, np.arange(self.cell_count + 1))
        return [order[boundaries[i]:boundaries[i + 1]] for i in range(self.cell_count)]

    # ------------------------------------------------------------------
    # adjacency (4-neighbourhood with wrap-around)
    # ------------------------------------------------------------------
    def neighbors(self, flat: int) -> List[int]:
        """The four edge-adjacent cells (torus wrap-around)."""
        row, col = self.rowcol(flat)
        return [
            self.flat_index(row - 1, col),
            self.flat_index(row + 1, col),
            self.flat_index(row, col - 1),
            self.flat_index(row, col + 1),
        ]

    def iter_cells(self) -> Iterator[int]:
        """Iterate over all flat cell indices."""
        return iter(range(self.cell_count))

    # ------------------------------------------------------------------
    # Manhattan routing support (scheme A)
    # ------------------------------------------------------------------
    def horizontal_path(self, start: int, end: int) -> List[int]:
        """Cells visited moving horizontally from ``start`` to the column of
        ``end``, along the shorter wrap-around direction (inclusive of both
        endpoints' row/column combination)."""
        row, col_from = self.rowcol(start)
        _, col_to = self.rowcol(end)
        return [self.flat_index(row, col) for col in _axis_path(col_from, col_to, self.cells_per_side)]

    def vertical_path(self, start: int, end: int) -> List[int]:
        """Cells visited moving vertically from ``start`` to the row of ``end``."""
        row_from, col = self.rowcol(start)
        row_to, _ = self.rowcol(end)
        return [self.flat_index(row, col) for row in _axis_path(row_from, row_to, self.cells_per_side)]

    def manhattan_route(self, start: int, end: int) -> List[int]:
        """Scheme-A cell route: horizontal first, then vertical (Definition 11).

        Returns the full cell sequence from ``start`` to ``end`` inclusive,
        with no repeated consecutive cells.
        """
        row_s, col_s = self.rowcol(start)
        row_e, col_e = self.rowcol(end)
        corner = self.flat_index(row_s, col_e)
        horizontal = self.horizontal_path(start, corner)
        vertical = self.vertical_path(corner, end)
        if len(vertical) > 1:
            return horizontal + vertical[1:]
        return horizontal


def _axis_path(start: int, end: int, size: int) -> List[int]:
    """Indices along one axis from start to end, the short way around."""
    if start == end:
        return [start]
    forward = (end - start) % size
    backward = (start - end) % size
    if forward <= backward:
        return [(start + step) % size for step in range(forward + 1)]
    return [(start - step) % size for step in range(backward + 1)]


def tessellation_for_area(target_cell_area: float) -> SquareTessellation:
    """Finest square tessellation whose cells have at least the given area.

    Used to realise cells of area ``(16 + beta) gamma(n)``: we take
    ``cells_per_side = floor(1 / sqrt(area))`` so each cell is at least as
    large as requested.
    """
    if not (0 < target_cell_area <= 1):
        raise ValueError(f"cell area must be in (0, 1], got {target_cell_area}")
    side = max(1, int(np.floor(1.0 / np.sqrt(target_cell_area))))
    return SquareTessellation(side)


def tessellation_for_cell_side(target_side: float) -> SquareTessellation:
    """Finest square tessellation with cell side at least ``target_side``."""
    if not (0 < target_side <= 1):
        raise ValueError(f"cell side must be in (0, 1], got {target_side}")
    return SquareTessellation(max(1, int(np.floor(1.0 / target_side))))
