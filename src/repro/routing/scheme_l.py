"""L-maximum-hop BS access (extension; cf. reference [9] of the paper).

The paper's scheme B assumes every MS reaches its zone's base stations in
one wireless contact; Li, Zhang & Fang's *L-maximum-hop resource
allocation* (cited as [9]) lets an MS reach infrastructure through at most
``L`` wireless relay hops, trading per-hop wireless work for coverage:
sparse BS deployments become usable, while end-to-end delay stays
``O(L) = O(1)`` (independent of ``n``).

Flow-level model implemented here:

- build the unit-disk graph over MS positions at range ``R_T`` and run a
  multi-source BFS from the base stations: ``hops[i]`` is the wireless hop
  distance of MS ``i`` to its nearest BS (``inf`` if farther than ``L``);
- MSs attach to their hop-nearest BS; the cells are scheduled in TDMA
  groups exactly as in scheme C, but serving MS ``i`` costs ``hops[i]``
  transmissions per packet, all within the cell's local channel;
- a uniform rate ``lambda`` is feasible in the access phase iff for every
  cell ``2 G lambda * sum_i hops[i] <= 1``;
- Phase II rides the wired backbone between cluster/zone BS sets as usual.

Setting ``L = 1`` recovers a scheme-C-like single-hop access.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict

import numpy as np

from ..geometry.neighbors import CellGridIndex
from ..infrastructure.backbone import Backbone
from .base import FlowResult, RoutingScheme
from .scheme_c import largest_first_colouring

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..simulation.traffic import PermutationTraffic

__all__ = ["SchemeL"]


class SchemeL(RoutingScheme):
    """Multi-hop BS access with a hop budget ``L``.

    Parameters
    ----------
    ms_positions, bs_positions:
        Node positions (static snapshot; home-points for mobile networks).
    ms_zone, bs_zone:
        Zone labels for Phase II routing (clusters or squarelets).
    backbone:
        The wired BS network.
    transmission_range:
        Wireless range ``R_T`` for the access hops.
    max_hops:
        The hop budget ``L >= 1``.
    delta:
        Guard constant for the TDMA cell grouping.
    """

    def __init__(
        self,
        ms_positions: np.ndarray,
        bs_positions: np.ndarray,
        ms_zone: np.ndarray,
        bs_zone: np.ndarray,
        backbone: Backbone,
        transmission_range: float,
        max_hops: int = 2,
        delta: float = 1.0,
    ):
        if max_hops < 1:
            raise ValueError(f"hop budget L must be >= 1, got {max_hops}")
        if transmission_range <= 0:
            raise ValueError(
                f"transmission range must be positive, got {transmission_range}"
            )
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self._ms = np.atleast_2d(np.asarray(ms_positions, dtype=float))
        self._bs = np.atleast_2d(np.asarray(bs_positions, dtype=float))
        self._ms_zone = np.asarray(ms_zone, dtype=int)
        self._bs_zone = np.asarray(bs_zone, dtype=int)
        self._backbone = backbone
        self._range = float(transmission_range)
        self._max_hops = int(max_hops)
        self._delta = float(delta)
        n, k = self._ms.shape[0], self._bs.shape[0]
        if self._ms_zone.shape[0] != n or self._bs_zone.shape[0] != k:
            raise ValueError("zone assignment lengths must match positions")
        if backbone.bs_count != k:
            raise ValueError(
                f"backbone has {backbone.bs_count} BSs but {k} positions given"
            )
        self._hops, self._cell_of_ms = self._multi_source_bfs()
        self._groups = self._color_cells()

    # ------------------------------------------------------------------
    # access-graph construction
    # ------------------------------------------------------------------
    def _multi_source_bfs(self):
        """Hop distance and hop-nearest BS for each MS (within ``L``).

        The unit-disk access graph comes from a cell-grid radius query, so
        building it costs ``O(edges)`` memory instead of an
        ``(n + k)^2`` adjacency matrix.
        """
        from scipy.sparse import csr_matrix  # local: keep scipy off the import path
        from scipy.sparse.csgraph import dijkstra

        n, k = self._ms.shape[0], self._bs.shape[0]
        positions = np.vstack([self._ms, self._bs])
        total = n + k
        i, j, _ = CellGridIndex(positions).pairs_within(self._range)
        graph = csr_matrix(
            (
                np.ones(2 * i.size, dtype=np.int8),
                (np.concatenate([i, j]), np.concatenate([j, i])),
            ),
            shape=(total, total),
        )
        hop_matrix, predecessors = dijkstra(
            graph,
            directed=False,
            indices=np.arange(n, n + k),
            unweighted=True,
            limit=self._max_hops,
            return_predecessors=True,
        )
        ms_hops = hop_matrix[:, :n]  # (k, n)
        best_bs = np.argmin(ms_hops, axis=0)
        best_hops = ms_hops[best_bs, np.arange(n)]
        reachable = np.isfinite(best_hops)
        cell = np.where(reachable, best_bs, -1)
        hops = np.where(reachable, best_hops, np.inf)
        return hops, cell.astype(int)

    def _color_cells(self) -> np.ndarray:
        """TDMA grouping of BS cells; conflict radius covers the whole
        ``L``-hop access neighbourhood ``(L + 1 + Delta) R_T``."""
        conflict = (self._max_hops + 1.0 + self._delta) * self._range
        rows, cols, distances = CellGridIndex(self._bs).pairs_within(conflict)
        close = distances < conflict
        return largest_first_colouring(self._bs.shape[0], rows[close], cols[close])

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def hop_counts(self) -> np.ndarray:
        """Wireless hops from each MS to its BS (``inf`` when uncovered)."""
        return self._hops

    @property
    def coverage(self) -> float:
        """Fraction of MSs within ``L`` hops of some BS."""
        return float(np.mean(np.isfinite(self._hops)))

    @property
    def group_count(self) -> int:
        """Number of TDMA groups."""
        return int(self._groups.max()) + 1 if self._groups.size else 1

    @property
    def max_hops(self) -> int:
        """The hop budget ``L``."""
        return self._max_hops

    def cell_hop_work(self) -> np.ndarray:
        """Total transmissions per packet round in each cell:
        ``sum_{i in cell} hops_i``, shape ``(k,)``."""
        k = self._bs.shape[0]
        work = np.zeros(k)
        covered = self._cell_of_ms >= 0
        np.add.at(work, self._cell_of_ms[covered], self._hops[covered])
        return work

    # ------------------------------------------------------------------
    # flow analysis
    # ------------------------------------------------------------------
    def sustainable_rate(self, traffic: "PermutationTraffic") -> FlowResult:
        n = self._ms.shape[0]
        if traffic.session_count != n:
            raise ValueError(
                f"traffic has {traffic.session_count} sessions but the network "
                f"has {n} MSs"
            )
        uncovered = int(np.sum(self._cell_of_ms < 0))
        if uncovered:
            return FlowResult(
                per_node_rate=0.0,
                bottleneck="uncovered-ms",
                details={"uncovered": uncovered, "coverage": self.coverage},
            )
        groups = self.group_count
        work = self.cell_hop_work()
        busiest = float(work.max())
        access_rate = 1.0 / (2.0 * groups * busiest) if busiest else math.inf
        # Phase II, batched per zone pair
        pair_sessions: Dict[tuple, float] = {}
        for source, dest in traffic.pairs():
            source_zone = int(self._ms_zone[source])
            dest_zone = int(self._ms_zone[dest])
            if source_zone != dest_zone:
                key = (source_zone, dest_zone)
                pair_sessions[key] = pair_sessions.get(key, 0.0) + 1.0
        backbone_rate = self._backbone.spread_scale(self._bs_zone, pair_sessions)
        rate = min(access_rate, backbone_rate)
        if not math.isfinite(rate):
            rate = 0.0
        bottleneck = "access" if access_rate <= backbone_rate else "backbone"
        per_ms_work = work[self._cell_of_ms]
        generic_access = (
            1.0 / (2.0 * groups * float(np.mean(per_ms_work)))
            if per_ms_work.size
            else 0.0
        )
        generic = min(generic_access, backbone_rate)
        return FlowResult(
            per_node_rate=max(0.0, rate),
            bottleneck=bottleneck,
            details={
                "access_rate": access_rate,
                "backbone_rate": backbone_rate,
                "generic_rate": max(0.0, generic if math.isfinite(generic) else 0.0),
                "coverage": self.coverage,
                "tdma_groups": groups,
                "mean_access_hops": float(np.mean(self._hops)),
                "max_cell_hop_work": busiest,
            },
        )
