"""Optimal routing scheme A (Definition 11) -- the mobility route.

The torus is tessellated into squarelets of side ``Theta(1/f(n))`` (matching
the mobility radius, so nodes whose home-points sit in adjacent squarelets
meet with the contact probability of Corollary 1).  A session's traffic is
forwarded squarelet-by-squarelet, first horizontally to the destination's
column, then vertically (Manhattan routing); at each hop a node whose
home-point lies in the next squarelet is used as relay.  Lemma 5 shows this
sustains ``lambda = Theta(1/f(n))`` in uniformly dense networks.

The flow analysis follows the lower-bound proof: the aggregate link capacity
between two adjacent squarelets is the sum of the Corollary-1 pair
capacities across them, the load is ``lambda`` times the number of sessions
routed through that squarelet boundary, and the sustainable rate is the
worst capacity/load ratio (plus per-session first/last-hop constraints).

Every capacity comes from one Corollary-1 block per squarelet: for each
cell ``c`` one distance-and-kernel pass builds the rows of ``c`` against the
members of ``c``, of its east and of its north neighbour, never an ``n x n``
matrix.  The own ``(c, c)``, ``(c, east)`` and ``(c, north)`` sub-blocks are
copied out contiguous before any sum, so each sum adds the same floats in
the same order as a block built for that cell pair alone.

- A node's capacity into a neighbouring squarelet is its row sum in the
  block towards that squarelet.  West and south rows are the rows of the
  contiguous transpose of the neighbour's east / north block: the torus
  distance is exactly symmetric, so those rows hold the same floats in the
  same order as a block built the other way round.  A node's capacity into
  its own squarelet leaves the node out by removing the block's diagonal
  (not zeroing it), which keeps the summation order of the other entries.
- A squarelet boundary's capacity is half the sum of its whole block.
  Float addition is not associative, so the ``(a, b)`` and ``(b, a)`` block
  sums can differ in the last bit; each unordered cell pair is taken in
  the orientation of the directed route edge across it that is used first
  (session order, then route order).  That rule makes the rate a pure
  function of the home-points and the traffic.

Row sums are reduced over contiguous rows only, so each equals the sum of a
``1 x m`` block built for that node alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..geometry.neighbors import pair_distances
from ..geometry.tessellation import SquareTessellation
from ..geometry.torus import pairwise_distances
from ..mobility.shapes import MobilityShape
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..simulation.traffic import PermutationTraffic
from ..wireless.link_capacity import contact_probability_ms_ms
from .base import FlowResult, RoutingScheme

__all__ = ["SchemeA"]

#: Neighbour directions: column +1 / -1, row +1 / -1 (with wrap-around).
EAST, WEST, NORTH, SOUTH = range(4)
_ROW_STEP = np.array([0, 0, 1, -1])
_COL_STEP = np.array([1, -1, 0, 0])
_OPPOSITE = np.array([WEST, EAST, SOUTH, NORTH])


@dataclass(frozen=True)
class _Instance:
    tessellation: SquareTessellation
    home_cell: np.ndarray
    members: List[np.ndarray]


class SchemeA(RoutingScheme):
    """Squarelet Manhattan routing over the mobility pattern.

    Parameters
    ----------
    home_points:
        MS home-points, shape ``(n, 2)``.
    shape:
        The mobility shape ``s(d)``.
    f:
        Network scaling factor ``f(n)``; mobility radius is
        ``shape.support_radius / f``.
    c_t:
        Range constant of policy ``S*``.
    cell_fraction:
        Squarelet side as a fraction of the mobility radius ``D/f``
        (``Theta(1)``; default 0.7 keeps adjacent-squarelet home-points well
        inside contact range).
    """

    def __init__(
        self,
        home_points: np.ndarray,
        shape: MobilityShape,
        f: float,
        c_t: float = 1.0,
        cell_fraction: float = 0.7,
    ):
        if f < 1.0:
            raise ValueError(f"need f >= 1 (alpha >= 0), got {f}")
        if not (0 < cell_fraction <= 2.0):
            raise ValueError(f"cell_fraction must be in (0, 2], got {cell_fraction}")
        self._home = np.atleast_2d(np.asarray(home_points, dtype=float))
        self._shape = shape
        self._f = float(f)
        self._c_t = float(c_t)
        target_side = cell_fraction * shape.support_radius / f
        cells_per_side = max(1, int(math.floor(1.0 / min(target_side, 1.0))))
        tess = SquareTessellation(cells_per_side)
        home_cell = tess.cell_of(self._home)
        self._instance = _Instance(
            tessellation=tess, home_cell=home_cell, members=tess.members(self._home)
        )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def tessellation(self) -> SquareTessellation:
        """The squarelet grid used for routing."""
        return self._instance.tessellation

    @property
    def node_count(self) -> int:
        """Number of mobile stations."""
        return self._home.shape[0]

    def cell_route(self, source: int, destination: int) -> List[int]:
        """The Manhattan squarelet route of one session (cells, inclusive)."""
        cells = self._instance.home_cell
        return self._instance.tessellation.manhattan_route(
            int(cells[source]), int(cells[destination])
        )

    def relay_candidates(self, cell: int) -> np.ndarray:
        """MS indices whose home-point lies in the given squarelet."""
        return self._instance.members[cell]

    # ------------------------------------------------------------------
    # link capacities (block-wise Corollary 1)
    # ------------------------------------------------------------------
    def _mu_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Corollary-1 MS-MS capacities between two index sets."""
        distances = pairwise_distances(self._home[rows], self._home[cols])
        mu = contact_probability_ms_ms(
            self._shape, self._f, self.node_count, distances, self._c_t
        )
        return mu

    def _cell_blocks(self, rows: np.ndarray, col_sets: List[np.ndarray]) -> List[np.ndarray]:
        """The contiguous Corollary-1 block of ``rows`` against each of
        ``col_sets``.

        One distance-and-kernel pass builds them side by side, and each is
        copied out contiguous: it holds the same floats in the same layout
        as a block built on its own, so every sum over it adds them in the
        same order.
        """
        widths = [cols.size for cols in col_sets]
        fused = self._mu_block(rows, np.concatenate(col_sets))
        parts = np.split(fused, np.cumsum(widths)[:-1], axis=1)
        return [np.ascontiguousarray(part) for part in parts]

    def cell_edge_capacity(self, cell_from: int, cell_to: int) -> float:
        """Aggregate link capacity across one squarelet boundary.

        Sum of the pairwise Corollary-1 capacities between home-points of
        the two squarelets, halved: ``S*`` splits each enabled pair's
        bandwidth between the two directions, so the directed capacity is
        ``mu / 2``.  The block is summed in the ``(cell_from, cell_to)``
        orientation; the reverse orientation holds the same values and can
        differ only in the last bit.
        """
        members_from = self._instance.members[cell_from]
        members_to = self._instance.members[cell_to]
        if members_from.size == 0 or members_to.size == 0:
            return 0.0
        block = self._mu_block(members_from, members_to)
        if cell_from == cell_to:
            # exclude self-pairs when both endpoints share the squarelet
            np.fill_diagonal(block, 0.0)
        return 0.5 * float(block.sum())

    def _capacities(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every endpoint and boundary capacity, from each cell's own, east
        and north blocks (:meth:`_cell_blocks`), each built once.

        Returns ``(own, toward, boundary)``: ``own[i]`` is node ``i``'s
        capacity into its own squarelet, ``toward[i, d]`` into the
        neighbouring squarelet in direction ``d``, and ``boundary[c, d]``
        the capacity of the edge from cell ``c`` to its neighbour in
        direction ``d``, summed in that orientation.
        """
        tess = self._instance.tessellation
        side = tess.cells_per_side
        own = np.zeros(self.node_count)
        toward = np.zeros((self.node_count, 4))
        boundary = np.zeros((tess.cell_count, 4))
        members = self._instance.members
        for cell, rows in enumerate(members):
            if rows.size == 0:
                continue
            row, col = divmod(cell, side)
            # with one cell every route stays in it: only the own block
            ahead = () if side == 1 else (
                (EAST, WEST, tess.flat_index(row, col + 1)),
                (NORTH, SOUTH, tess.flat_index(row + 1, col)),
            )
            own_block, *blocks = self._cell_blocks(
                rows, [rows] + [members[other] for _, _, other in ahead]
            )
            own[rows] = 0.5 * _without_diagonal(own_block).sum(axis=1)
            for (forward, back, other), block in zip(ahead, blocks):
                cols = members[other]
                if cols.size == 0:
                    continue
                flipped = np.ascontiguousarray(block.T)
                toward[rows, forward] = 0.5 * block.sum(axis=1)
                toward[cols, back] = 0.5 * flipped.sum(axis=1)
                boundary[cell, forward] = 0.5 * block.sum()
                boundary[other, back] = 0.5 * flipped.sum()
        return own, toward, boundary

    # ------------------------------------------------------------------
    # flow analysis (Lemma 5)
    # ------------------------------------------------------------------
    def sustainable_rate(self, traffic: "PermutationTraffic") -> FlowResult:
        if traffic.session_count != self.node_count:
            raise ValueError(
                f"traffic has {traffic.session_count} sessions but the network "
                f"has {self.node_count} MSs"
            )
        tess = self._instance.tessellation
        side = tess.cells_per_side
        source = np.arange(self.node_count)
        dest = np.asarray(traffic.destination, dtype=np.int64)
        row, col = np.divmod(self._instance.home_cell, side)
        # horizontal leg along the source's row, then vertical along the
        # destination's column (Definition 11)
        across, east = _axis_steps(col[source], col[dest], side)
        up, north = _axis_steps(row[source], row[dest], side)
        lateral = np.where(east, EAST, WEST)
        vertical = np.where(north, NORTH, SOUTH)
        hops = across + up
        own, toward, boundary = self._capacities()

        # per-session first/last-hop constraint: the source into the first
        # relay squarelet, the destination from the one before its own
        first = np.where(across > 0, lateral, vertical)
        last = _OPPOSITE[np.where(up > 0, vertical, lateral)]
        routed = np.minimum(toward[source, first], toward[dest, last])
        # source and destination share a squarelet: direct contact or a
        # same-cell two-hop relay
        direct = 0.5 * contact_probability_ms_ms(
            self._shape, self._f, self.node_count,
            pair_distances(self._home, source, dest), self._c_t,
        )
        relayed = np.minimum(own[source], own[dest])
        session_caps = np.where(hops > 0, routed, np.maximum(direct, relayed))
        session_rate = float(session_caps.min()) if session_caps.size else math.inf

        # squarelet-boundary constraint
        edge_rate, worst_edge = _boundary_rate(
            tess, boundary, row, col, dest, across, up, lateral, vertical
        )
        rate = min(edge_rate, session_rate)
        if not math.isfinite(rate):
            rate = 0.0
        bottleneck = "cell-edge" if edge_rate <= session_rate else "session-endpoint"
        total_hops = int(np.maximum(hops, 1).sum())
        return FlowResult(
            per_node_rate=max(0.0, rate),
            bottleneck=bottleneck,
            details={
                "edge_rate": edge_rate,
                "session_rate": session_rate,
                "worst_edge": worst_edge,
                "mean_route_hops": total_hops / max(1, traffic.session_count),
                "cells_per_side": side,
            },
        )


def _without_diagonal(block: np.ndarray) -> np.ndarray:
    """Square ``block`` with its diagonal removed, shape ``(m, m - 1)``.

    Each row keeps its off-diagonal entries in order (zeroing the diagonal
    instead would add a ``0.0`` term and change the summation order).
    """
    m = block.shape[0]
    return block.ravel()[1:].reshape(m - 1, m + 1)[:, :-1].reshape(m, m - 1)


def _axis_steps(start: np.ndarray, end: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Step count along one torus axis and whether the steps go forward:
    the short way around, forward on ties (as ``tessellation._axis_path``)."""
    forward = (end - start) % size
    backward = (start - end) % size
    ahead = forward <= backward
    return np.where(ahead, forward, backward), ahead


def _boundary_rate(
    tess: SquareTessellation,
    boundary: np.ndarray,
    row: np.ndarray,
    col: np.ndarray,
    dest: np.ndarray,
    across: np.ndarray,
    up: np.ndarray,
    lateral: np.ndarray,
    vertical: np.ndarray,
) -> Tuple[float, object]:
    """Worst capacity/load over the directed squarelet edges of all routes.

    Session ``i`` runs from node ``i`` to ``dest[i]`` in ``across`` steps
    towards ``lateral``, then ``up`` steps towards ``vertical``;
    ``row``/``col`` are each node's home cell.  Returns
    ``(edge_rate, worst_edge)``: ``inf`` and ``None`` when no route leaves
    its squarelet.  Ties go to the edge used first.
    """
    side = tess.cells_per_side
    cell_count = tess.cell_count
    hops = across + up
    total = int(hops.sum())
    if total == 0:
        return math.inf, None
    # one entry per route step, session-major then along the route
    owner = np.repeat(np.arange(hops.size), hops)
    step = np.arange(total) - np.repeat(np.cumsum(hops) - hops, hops)
    sideways = step < across[owner]
    direction = np.where(sideways, lateral[owner], vertical[owner])
    row_step, col_step = _ROW_STEP[direction], _COL_STEP[direction]
    from_row = np.where(sideways, row[owner], row[owner] + row_step * (step - across[owner])) % side
    from_col = np.where(sideways, col[owner] + col_step * step, col[dest[owner]]) % side
    cell_from = from_row * side + from_col
    cell_to = (from_row + row_step) % side * side + (from_col + col_step) % side
    edge, first_use, load = np.unique(
        cell_from * cell_count + cell_to, return_index=True, return_counts=True
    )
    order = np.argsort(first_use)
    edge, first_use, load = edge[order], first_use[order], load[order]
    edge_from, edge_to = np.divmod(edge, cell_count)
    # each unordered cell pair in the orientation of its first-used edge
    pair = np.minimum(edge_from, edge_to) * cell_count + np.maximum(edge_from, edge_to)
    _, lead, of_pair = np.unique(pair, return_index=True, return_inverse=True)
    capacity = boundary[edge_from[lead], direction[first_use[lead]]][of_pair]
    rate = capacity / load
    worst = int(np.argmin(rate))
    return float(rate[worst]), (int(edge_from[worst]), int(edge_to[worst]))
