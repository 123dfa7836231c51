"""The wired base-station backbone.

Section II assumes "all base stations are wired to each other with bandwidth
``c(n)``" and wired traffic causes no wireless interference: a complete graph
on the ``k`` BSs with per-edge capacity ``c(n)``.  The aggregate bandwidth a
single BS sees is ``mu_c = k c(n) = Theta(n^phi)``, the quantity whose
exponent ``phi`` parameterises Figure 3.

Besides the paper's full mesh, sparser topologies (ring, grid, star) are
provided for the provisioning ablation: they change how backbone load
concentrates and let the benchmarks explore the ``phi`` trade-off with
realistic wiring.  Multi-hop backbone routes use networkx shortest paths;
networkx is imported on first use, so the full mesh never loads it.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    import networkx as nx

__all__ = ["BackboneTopology", "Backbone"]

Edge = Tuple[int, int]


class BackboneTopology(enum.Enum):
    """Supported wiring patterns between base stations."""

    #: The paper's model: every BS pair shares a dedicated wire.
    FULL_MESH = "full_mesh"
    #: BSs on a cycle (cheapest 2-connected wiring).
    RING = "ring"
    #: Near-square grid wiring.
    GRID = "grid"
    #: All BSs wired to BS 0 (a wired aggregation point).
    STAR = "star"


class Backbone:
    """Wired network over ``k`` base stations with per-edge capacity ``c``.

    Tracks per-edge load so the flow analyses can locate the Phase II
    bottleneck of routing scheme B (proof of Theorem 5).

    Sparse topologies keep an explicit per-wire load.  The full mesh records
    one ``(source BSs, target BSs, share)`` block per call and reads loads
    per *BS class* (BSs that every call lists equally often): one wire per
    class pair replays the calls in order, adding each call's share once
    per ``(src, dst)`` hit, so the loads keep per-wire accounting's bits.
    """

    def __init__(
        self,
        bs_count: int,
        edge_capacity: float,
        topology: BackboneTopology = BackboneTopology.FULL_MESH,
    ):
        if bs_count < 1:
            raise ValueError(f"need at least one base station, got {bs_count}")
        if edge_capacity <= 0:
            raise ValueError(f"edge capacity must be positive, got {edge_capacity}")
        self._k = bs_count
        self._capacity = float(edge_capacity)
        self._topology = topology
        # the full mesh is handled analytically (k^2 edges would be huge);
        # sparse topologies keep an explicit graph for shortest paths
        self._graph = (
            None
            if topology is BackboneTopology.FULL_MESH
            else self._build_graph()
        )
        # sparse topologies: load per wire; full mesh: one block per call
        self._load: Dict[Edge, float] = {}
        self._blocks: List[Tuple[np.ndarray, np.ndarray, float]] = []  # counts, share

    def _build_graph(self) -> nx.Graph:
        import networkx as nx  # local: only non-mesh topologies need a graph

        graph = nx.Graph()
        graph.add_nodes_from(range(self._k))
        if self._k == 1:
            return graph
        if self._topology is BackboneTopology.RING:
            graph.add_edges_from((i, (i + 1) % self._k) for i in range(self._k))
        elif self._topology is BackboneTopology.STAR:
            graph.add_edges_from((0, i) for i in range(1, self._k))
        elif self._topology is BackboneTopology.GRID:
            cols = int(math.ceil(math.sqrt(self._k)))
            for index in range(self._k):
                row, col = divmod(index, cols)
                right = index + 1
                if col + 1 < cols and right < self._k:
                    graph.add_edge(index, right)
                below = index + cols
                if below < self._k:
                    graph.add_edge(index, below)
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown topology {self._topology}")
        return graph

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def bs_count(self) -> int:
        """Number of base stations ``k``."""
        return self._k

    @property
    def edge_capacity(self) -> float:
        """Per-wire bandwidth ``c(n)``."""
        return self._capacity

    @property
    def topology(self) -> BackboneTopology:
        """The wiring pattern."""
        return self._topology

    @property
    def aggregate_bs_bandwidth(self) -> float:
        """``mu_c``: total wired bandwidth incident to one BS (full mesh:
        ``(k-1) c ~ k c``)."""
        if self._k == 1:
            return 0.0
        if self._graph is None:
            return float(self._k - 1) * self._capacity
        degrees = [self._graph.degree(node) for node in self._graph.nodes]
        return float(min(degrees)) * self._capacity

    @property
    def edge_count(self) -> int:
        """Number of wires."""
        if self._graph is None:
            return self._k * (self._k - 1) // 2
        return self._graph.number_of_edges()

    def edges(self) -> Iterable[Edge]:
        """All wires as sorted tuples."""
        if self._graph is None:
            return (
                (a, b)
                for a in range(self._k)
                for b in range(a + 1, self._k)
            )
        return (tuple(sorted(edge)) for edge in self._graph.edges)

    # ------------------------------------------------------------------
    # routing and load
    # ------------------------------------------------------------------
    def route(self, source_bs: int, target_bs: int) -> List[int]:
        """BS sequence from source to target (shortest hop path).

        The full mesh always returns the direct wire (no graph search).
        """
        self._check_bs(source_bs)
        self._check_bs(target_bs)
        if source_bs == target_bs:
            return [source_bs]
        if self._topology is BackboneTopology.FULL_MESH:
            return [source_bs, target_bs]
        import networkx as nx  # local: only non-mesh topologies need a graph

        return nx.shortest_path(self._graph, source_bs, target_bs)

    def reset_load(self) -> None:
        """Forget all accumulated load."""
        self._load.clear()
        self._blocks.clear()

    def add_flow(self, source_bs: int, target_bs: int, rate: float) -> None:
        """Accumulate ``rate`` on every wire of the route between two BSs."""
        if self._graph is None:
            self.spread_flow([source_bs], [target_bs], rate)
            return
        if rate < 0:
            raise ValueError(f"rate must be non-negative, got {rate}")
        path = self.route(source_bs, target_bs)
        for a, b in zip(path, path[1:]):
            edge = (min(a, b), max(a, b))
            self._load[edge] = self._load.get(edge, 0.0) + rate

    def spread_flow(
        self, source_set: Sequence[int], target_set: Sequence[int], total_rate: float
    ) -> None:
        """Scheme B Phase II: spread a zone-to-zone flow evenly over all
        (source BS, target BS) wires -- the load-balancing that makes the
        ``Nb(S) Nb(D) c`` capacity available.  A BS listed twice carries
        its share twice; self pairs ride no wire."""
        if len(source_set) == 0 or len(target_set) == 0:
            raise ValueError("both BS sets must be non-empty")
        if total_rate < 0:
            raise ValueError(f"rate must be non-negative, got {total_rate}")
        sources = self._bs_indices(source_set)
        targets = self._bs_indices(target_set)
        share = total_rate / (sources.size * targets.size)
        if self._graph is None:
            k = self._k
            self._blocks.append(
                (np.bincount(sources, minlength=k), np.bincount(targets, minlength=k), share)
            )
            return
        for src in sources.tolist():
            for dst in targets.tolist():
                if src != dst:
                    self.add_flow(src, dst, share)

    def _mesh_loads(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full mesh: ``(class of each BS, hit class pairs p <= q, load on
        each of their wires)``.  BSs share a class iff every call lists them
        equally often as source and as target (a 1-D code refined call by
        call)."""
        classes = np.zeros(self._k, dtype=np.int64)
        for out_count, in_count, _share in self._blocks:
            code = (classes * (out_count.max() + 1) + out_count) * (in_count.max() + 1) + in_count
            classes = np.unique(code, return_inverse=True)[1]
        _, representative, size = np.unique(classes, return_index=True, return_counts=True)
        loads = np.zeros((size.size, size.size))
        total_hits = np.zeros(loads.shape, dtype=np.int64)
        for out_count, in_count, share in self._blocks:
            hits = np.outer(out_count[representative], in_count[representative])
            hits = hits + hits.T
            # float addition is not associative: add the share once per hit
            for times in range(1, int(hits.max(initial=0)) + 1):
                np.add(loads, share, out=loads, where=hits >= times)
            total_hits += hits
        wired = np.triu(total_hits > 0)
        np.fill_diagonal(wired, wired.diagonal() & (size > 1))  # a lone BS has no wire to itself
        return classes, np.argwhere(wired), loads[wired]

    def spread_scale(
        self,
        zone_of_bs: Sequence[int],
        zone_flows: Dict[Tuple[int, int], float],
    ) -> float:
        """Sustainable scale for evenly-spread zone-to-zone flows.

        ``zone_flows[(za, zb)]`` is the total rate from zone ``za`` to zone
        ``zb``; each such flow is spread evenly over all wires between the
        zones' BS sets (as in :meth:`spread_flow`).  Returns the largest
        multiplier ``t`` so that ``t *`` flows fit, ``inf`` with no flow,
        and ``0`` when some flow has no wires to ride (a zone without BSs).

        For the full mesh every wire between two zones carries the same
        load, so the answer is closed-form and O(|zones|^2); other
        topologies fall back to explicit load accounting.
        """
        zone_of_bs = np.asarray(zone_of_bs)
        if zone_of_bs.shape[0] != self._k:
            raise ValueError(
                f"zone assignment has {zone_of_bs.shape[0]} entries for "
                f"{self._k} BSs"
            )
        counts: Dict[int, int] = {}
        for zone in zone_of_bs.tolist():
            counts[zone] = counts.get(zone, 0) + 1
        if not zone_flows:
            return math.inf
        if self._topology is not BackboneTopology.FULL_MESH:
            self.reset_load()
            bs_by_zone: Dict[int, list] = {}
            for index, zone in enumerate(zone_of_bs.tolist()):
                bs_by_zone.setdefault(zone, []).append(index)
            for (za, zb), rate in zone_flows.items():
                if not bs_by_zone.get(za) or not bs_by_zone.get(zb):
                    return 0.0
                self.spread_flow(bs_by_zone[za], bs_by_zone[zb], rate)
            return self.sustainable_scale()
        peak = 0.0
        seen = set()
        for (za, zb), rate in zone_flows.items():
            k_a, k_b = counts.get(za, 0), counts.get(zb, 0)
            if k_a == 0 or k_b == 0:
                return 0.0
            if za == zb:
                continue  # intra-zone traffic never touches the backbone
            key = (min(za, zb), max(za, zb))
            if key in seen:
                continue
            seen.add(key)
            total = rate + zone_flows.get((zb, za), 0.0)
            peak = max(peak, total / (k_a * k_b))
        if peak == 0.0:
            return math.inf
        return self._capacity / peak

    def max_edge_load(self) -> float:
        """Largest accumulated load on any wire."""
        if self._graph is not None:
            return max(self._load.values(), default=0.0)
        return float(self._mesh_loads()[2].max(initial=0.0))

    def max_utilization(self) -> float:
        """``max edge load / c``; a schedule is feasible iff this is <= 1."""
        return self.max_edge_load() / self._capacity

    def overloaded_edges(self) -> List[Edge]:
        """Wires whose load exceeds capacity, as sorted ``(a, b)`` tuples
        with ``a < b``, in ascending order."""
        if self._graph is not None:
            return sorted(edge for edge, load in self._load.items() if load > self._capacity)
        classes, pairs, loads = self._mesh_loads()
        members = [np.flatnonzero(classes == p).tolist() for p in range(classes.max() + 1)]
        over = pairs[loads > self._capacity].tolist()
        return sorted(
            {(min(a, b), max(a, b)) for p, q in over for a in members[p] for b in members[q] if a != b}
        )

    def sustainable_scale(self) -> float:
        """Largest multiplier ``t`` such that ``t *`` (current load) fits.

        ``inf`` when no load has been added.
        """
        peak = self.max_edge_load()
        if peak == 0.0:
            return math.inf
        return self._capacity / peak

    def _check_bs(self, index: int) -> None:
        if not (0 <= index < self._k):
            raise ValueError(f"BS index {index} out of range [0, {self._k})")

    def _bs_indices(self, indices: Sequence[int]) -> np.ndarray:
        """``indices`` as an array, each checked by :meth:`_check_bs`."""
        array = np.asarray(indices)
        outside = array[(array < 0) | (array >= self._k)]
        if outside.size:
            self._check_bs(int(outside[0]))
        return array
