"""Optimal routing & scheduling scheme C (Definition 13) -- the static route.

Under trivial mobility the network is equivalent to a static one (Theorem 8),
and capacity is achieved cellularly: BSs are regularly placed inside each
cluster so that nearest-BS cells tile the cluster; cells are arranged into
non-interfering groups activated sequentially (a vertex colouring of the
bounded-degree cell-interference graph); within an active cell the MSs access
their BS in TDMA with transmission range equal to the cell size, the
bandwidth split into symmetric up- and downlink channels.  Phase II rides the
wired backbone exactly as in scheme B.

Theorem 9: this sustains ``lambda = Theta(min{k^2 c / n, k / n})``.
Phase II calls :meth:`Backbone.spread_flow` once per ordered cluster pair;
the full mesh reads the wire loads per BS class, bit for bit the per-wire
sums.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from ..geometry.neighbors import CellGridIndex, masked_nearest
from ..infrastructure.backbone import Backbone
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..simulation.traffic import PermutationTraffic
from .base import FlowResult, RoutingScheme
from .scheme_b import zone_pair_sessions

__all__ = ["SchemeC", "largest_first_colouring"]


def largest_first_colouring(k: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Greedy colouring of the ``k``-node graph with edges ``(rows, cols)``.

    The order and colour choice are networkx's ``greedy_color`` with
    ``strategy="largest_first"``: largest degree first, ties by index, each
    node taking the smallest colour no coloured neighbour has.  The
    adjacency is CSR, so no ``k x k`` matrix is built.
    """
    # the neighbours of i are neighbours[starts[i]:starts[i + 1]]
    heads = np.concatenate([rows, cols])
    degree = np.bincount(heads, minlength=k)
    neighbours = np.concatenate([cols, rows])[np.argsort(heads, kind="stable")].tolist()
    starts = np.concatenate([[0], np.cumsum(degree)]).tolist()
    colours = [-1] * k
    for node in np.argsort(-degree, kind="stable").tolist():
        used = {colours[other] for other in neighbours[starts[node]:starts[node + 1]]}
        colours[node] = next(c for c in range(len(used) + 1) if c not in used)
    return np.array(colours, dtype=int)


class SchemeC(RoutingScheme):
    """Cellular TDMA access + wired backbone for static (trivial) networks.

    Parameters
    ----------
    ms_positions:
        Static MS positions (trivial mobility: positions ~ home-points).
    bs_positions:
        BS positions, ideally a regular lattice per cluster
        (:func:`repro.infrastructure.placement.hexagonal_cluster_placement`).
    ms_cluster, bs_cluster:
        Cluster index of each MS / BS; MSs attach to the nearest BS *of their
        own cluster*.
    backbone:
        Wired BS network for Phase II (zone = cluster).
    delta:
        Protocol-model guard constant, used to build the cell-interference
        graph for the TDMA grouping.
    attach:
        Optional precomputed ``(cell_of_ms, attach_distance)`` pair, as
        produced by the nearest-same-cluster-BS search.  The trial-batched
        sweep runs that search member by member through
        :func:`~repro.routing.batched.batched_scheme_c_attach` and injects
        each member's result here; everything downstream (cell range,
        colouring, flow analysis) is unchanged.
    """

    def __init__(
        self,
        ms_positions: np.ndarray,
        bs_positions: np.ndarray,
        ms_cluster: np.ndarray,
        bs_cluster: np.ndarray,
        backbone: Backbone,
        delta: float = 1.0,
        attach: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ):
        self._ms = np.atleast_2d(np.asarray(ms_positions, dtype=float))
        self._bs = np.atleast_2d(np.asarray(bs_positions, dtype=float))
        self._ms_cluster = np.asarray(ms_cluster, dtype=int)
        self._bs_cluster = np.asarray(bs_cluster, dtype=int)
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self._delta = float(delta)
        self._backbone = backbone
        n, k = self._ms.shape[0], self._bs.shape[0]
        if self._ms_cluster.shape[0] != n or self._bs_cluster.shape[0] != k:
            raise ValueError("cluster assignment lengths must match positions")
        if backbone.bs_count != k:
            raise ValueError(
                f"backbone has {backbone.bs_count} BSs but {k} positions given"
            )
        if attach is None:
            self._cell_of_ms = self._attach()
        else:
            cell, attach_distance = attach
            cell = np.asarray(cell, dtype=int)
            attach_distance = np.asarray(attach_distance, dtype=float)
            if cell.shape[0] != n or attach_distance.shape[0] != n:
                raise ValueError("attach arrays must have one entry per MS")
            self._attach_distance = attach_distance
            self._cell_of_ms = cell
        self._cell_range = self._compute_cell_range()
        self._groups = self._color_cells()

    # ------------------------------------------------------------------
    # cell construction
    # ------------------------------------------------------------------
    def _attach(self) -> np.ndarray:
        """Nearest same-cluster BS for each MS (-1 when the cluster has none).

        Delegates to the shared chunked
        :func:`~repro.geometry.neighbors.masked_nearest` helper so no full
        ``n x k`` matrix is materialised; the attach distances are kept for
        the TDMA range computation.
        """
        cell, attach_distance = masked_nearest(
            self._ms,
            self._bs,
            point_labels=self._ms_cluster,
            other_labels=self._bs_cluster,
        )
        self._attach_distance = attach_distance
        return cell

    def _compute_cell_range(self) -> float:
        """TDMA transmission range: the largest MS-to-attached-BS distance."""
        finite = self._attach_distance[np.isfinite(self._attach_distance)]
        if finite.size == 0:
            return 0.0
        return float(finite.max())

    def _color_cells(self) -> np.ndarray:
        """Greedy colouring of the cell-interference graph.

        Two cells conflict when their BSs are within ``(2 + Delta) R_cell``:
        a transmission in one could then land inside the guard zone of the
        other (:meth:`_conflict_pairs`, a cell-grid query rather than a
        ``k x k`` matrix).  Bounded node degree keeps the colour count
        ``Theta(1)`` (the "well-known fact about vertex colouring" in
        Theorem 9's proof).
        """
        k = self._bs.shape[0]
        if k == 1 or self._cell_range == 0.0:
            return np.zeros(k, dtype=int)
        return largest_first_colouring(k, *self._conflict_pairs())

    def _conflict_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """BS pairs ``i < j`` closer than ``(2 + Delta) R_cell``, in
        lexicographic order: a :class:`~repro.geometry.neighbors.CellGridIndex`
        query gives the dense ``k x k`` matrix's pairs and distance bits
        without building it."""
        conflict_distance = (2.0 + self._delta) * self._cell_range
        rows, cols, distances = CellGridIndex(self._bs).pairs_within(conflict_distance)
        close = distances < conflict_distance
        return rows[close], cols[close]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def cell_of_ms(self) -> np.ndarray:
        """Attached BS (cell) of each MS; ``-1`` for orphans."""
        return self._cell_of_ms

    @property
    def cell_range(self) -> float:
        """The common TDMA transmission range (cell size)."""
        return self._cell_range

    @property
    def group_count(self) -> int:
        """Number of TDMA groups ``G`` (colours); each cell is active ``1/G``
        of the time."""
        return int(self._groups.max()) + 1 if self._groups.size else 1

    def cell_population(self) -> np.ndarray:
        """MSs attached to each BS, shape ``(k,)``."""
        attached = self._cell_of_ms[self._cell_of_ms >= 0]
        return np.bincount(attached, minlength=self._bs.shape[0])

    # ------------------------------------------------------------------
    # flow analysis (Theorem 9)
    # ------------------------------------------------------------------
    def sustainable_rate(self, traffic: "PermutationTraffic") -> FlowResult:
        n = self._ms.shape[0]
        if traffic.session_count != n:
            raise ValueError(
                f"traffic has {traffic.session_count} sessions but the network "
                f"has {n} MSs"
            )
        if np.any(self._cell_of_ms < 0):
            return FlowResult(
                per_node_rate=0.0,
                bottleneck="orphan-ms",
                details={"orphans": int(np.sum(self._cell_of_ms < 0))},
            )
        # Access: a cell is active 1/G of the time; within it the BS serves
        # its MSs round-robin on symmetric up/down sub-channels of width 1/2.
        groups = self.group_count
        population = self.cell_population()
        busiest = int(population.max())
        access_rate = 1.0 / (2.0 * groups * busiest) if busiest else math.inf
        # Phase II over the backbone, zones = clusters; sessions are batched
        # per ordered cluster pair.
        self._backbone.reset_load()
        bs_by_cluster: Dict[int, np.ndarray] = {
            int(c): np.nonzero(self._bs_cluster == c)[0]
            for c in np.unique(self._bs_cluster)
        }
        pair_sessions, _intra = zone_pair_sessions(
            self._ms_cluster, traffic.destination
        )
        for (source_cluster, dest_cluster), count in pair_sessions.items():
            self._backbone.spread_flow(
                bs_by_cluster[source_cluster],
                bs_by_cluster[dest_cluster],
                float(count),
            )
        backbone_rate = self._backbone.sustainable_scale()
        rate = min(access_rate, backbone_rate)
        if not math.isfinite(rate):
            rate = 0.0
        # generic-MS rate: use the (size-biased) mean population of the cell
        # a random MS lives in -- smooth in n, unlike the integer median
        per_ms_population = population[self._cell_of_ms]
        mean_population = float(per_ms_population.mean()) if n else 0.0
        median_access = (
            1.0 / (2.0 * groups * mean_population) if mean_population else 0.0
        )
        generic = min(median_access, backbone_rate)
        bottleneck = "access" if access_rate <= backbone_rate else "backbone"
        return FlowResult(
            per_node_rate=max(0.0, rate),
            bottleneck=bottleneck,
            details={
                "access_rate": access_rate,
                "backbone_rate": backbone_rate,
                "median_access_rate": median_access,
                "generic_rate": max(0.0, generic if math.isfinite(generic) else median_access),
                "tdma_groups": groups,
                "busiest_cell": busiest,
                "cell_range": self._cell_range,
            },
        )
