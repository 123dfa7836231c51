"""Max-flow cross-validation of the capacity analyses.

The paper's converse (Lemma 6) bounds the uniform rate by fixed geometric
cuts.  A sharper, per-session certificate comes from the link-capacity graph
itself: build a directed graph whose arcs carry the Corollary-1 link
capacities (halved per direction) and whose *nodes* are split in two to
enforce the ``Theta(1)`` per-node scheduling budget (Lemma 3); then for any
session ``(s, d)`` the uniform rate satisfies ``lambda <= maxflow(s -> d)``,
since a feasible schedule must push ``lambda`` end-to-end for that session
regardless of what the others do.

This machinery serves two purposes:

- a tighter empirical upper bound than strip cuts (used by the
  upper-bound benchmark to sandwich the achieved rates);
- an independent check that the scheme flow analyses never exceed what the
  link capacities could possibly support.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

import numpy as np

from ..geometry.torus import pairwise_distances
from ..mobility.shapes import MobilityShape
from ..simulation.traffic import PermutationTraffic
from ..wireless.link_capacity import (
    contact_probability_ms_bs,
    contact_probability_ms_ms,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    import networkx as nx

__all__ = ["LinkCapacityGraph", "session_max_flow", "uniform_rate_bound"]


class LinkCapacityGraph:
    """The node-split directed link-capacity graph of one realisation.

    Node ``v`` becomes ``(v, "in") -> (v, "out")`` with capacity
    ``node_budget`` (default 1/2: a node is busy at most all the time and
    splits its bandwidth between directions); every wireless or wired link
    ``u - v`` becomes arcs ``(u, "out") -> (v, "in")`` and back with the
    link capacity.

    Parameters
    ----------
    home_points:
        MS home-points, shape ``(n, 2)``.
    shape, f:
        Mobility shape and scaling (for Corollary-1 capacities).
    bs_positions:
        Optional BS positions; indices continue after the MSs.
    wire_capacity:
        Per-wire BS-BS bandwidth ``c(n)`` (full mesh assumed).
    c_t:
        ``S*`` range constant.
    capacity_floor:
        Arcs below this capacity are dropped (graph sparsity).
    node_budget:
        Per-node throughput budget entering the node-split arcs.
    """

    def __init__(
        self,
        home_points: np.ndarray,
        shape: MobilityShape,
        f: float,
        bs_positions: Optional[np.ndarray] = None,
        wire_capacity: float = 0.0,
        c_t: float = 1.0,
        capacity_floor: float = 1e-9,
        node_budget: float = 0.5,
    ):
        self._home = np.atleast_2d(np.asarray(home_points, dtype=float))
        self._n = self._home.shape[0]
        self._bs = (
            np.atleast_2d(np.asarray(bs_positions, dtype=float))
            if bs_positions is not None and len(bs_positions)
            else np.zeros((0, 2))
        )
        self._k = self._bs.shape[0]
        if node_budget <= 0:
            raise ValueError(f"node budget must be positive, got {node_budget}")
        import networkx as nx  # local: keep networkx off the import path

        graph = nx.DiGraph()
        total = self._n + self._k
        for node in range(total):
            graph.add_edge((node, "in"), (node, "out"), capacity=node_budget)
        # MS-MS wireless arcs
        mu = contact_probability_ms_ms(
            shape, f, self._n, pairwise_distances(self._home), c_t
        )
        np.fill_diagonal(mu, 0.0)
        rows, cols = np.nonzero(np.triu(mu, k=1) > capacity_floor)
        for i, j in zip(rows.tolist(), cols.tolist()):
            capacity = 0.5 * float(mu[i, j])
            graph.add_edge((i, "out"), (j, "in"), capacity=capacity)
            graph.add_edge((j, "out"), (i, "in"), capacity=capacity)
        # MS-BS wireless arcs
        if self._k:
            access = contact_probability_ms_bs(
                shape, f, self._n,
                pairwise_distances(self._home, self._bs), c_t,
            )
            ms_idx, bs_idx = np.nonzero(access > capacity_floor)
            for i, l in zip(ms_idx.tolist(), bs_idx.tolist()):
                capacity = 0.5 * float(access[i, l])
                bs_node = self._n + l
                graph.add_edge((i, "out"), (bs_node, "in"), capacity=capacity)
                graph.add_edge((bs_node, "out"), (i, "in"), capacity=capacity)
            # BS-BS wires (full mesh); wires do not consume the wireless
            # node budget, so they bypass the BS node-split arc
            if wire_capacity > 0:
                for a in range(self._k):
                    for b in range(a + 1, self._k):
                        node_a, node_b = self._n + a, self._n + b
                        graph.add_edge(
                            (node_a, "wired"), (node_b, "wired"),
                            capacity=wire_capacity,
                        )
                        graph.add_edge(
                            (node_b, "wired"), (node_a, "wired"),
                            capacity=wire_capacity,
                        )
                for l in range(self._k):
                    bs_node = self._n + l
                    # wireless-in -> wired network -> wireless-out couplings
                    graph.add_edge(
                        (bs_node, "in"), (bs_node, "wired"), capacity=math.inf
                    )
                    graph.add_edge(
                        (bs_node, "wired"), (bs_node, "out"), capacity=math.inf
                    )
        self._graph = graph

    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.DiGraph:
        """The underlying directed graph (node-split)."""
        return self._graph

    @property
    def ms_count(self) -> int:
        """Number of mobile stations."""
        return self._n

    @property
    def bs_count(self) -> int:
        """Number of base stations."""
        return self._k

    def max_flow(self, source: int, destination: int) -> float:
        """Maximum ``source -> destination`` flow (an upper bound on any
        uniform rate those two can sustain)."""
        if not (0 <= source < self._n and 0 <= destination < self._n):
            raise ValueError("source/destination must be MS indices")
        if source == destination:
            raise ValueError("source and destination must differ")
        if (source, "out") not in self._graph or (
            destination, "in"
        ) not in self._graph:
            return 0.0
        import networkx as nx  # local: keep networkx off the import path

        value, _ = nx.maximum_flow(
            self._graph, (source, "out"), (destination, "in")
        )
        return float(value)


def session_max_flow(
    graph: LinkCapacityGraph,
    sessions: Iterable[Tuple[int, int]],
) -> Dict[Tuple[int, int], float]:
    """Max-flow value of each given session."""
    return {
        (source, dest): graph.max_flow(source, dest)
        for source, dest in sessions
    }


def uniform_rate_bound(
    graph: LinkCapacityGraph,
    traffic: PermutationTraffic,
    sample: int = 8,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Upper bound on the uniform rate: the smallest per-session max-flow
    over a random sample of sessions (every sampled value is individually a
    valid bound; the minimum is the tightest of them)."""
    if sample < 1:
        raise ValueError(f"need at least one sampled session, got {sample}")
    rng = rng if rng is not None else np.random.default_rng(0)
    pairs = list(traffic.pairs())
    if sample < len(pairs):
        indices = rng.choice(len(pairs), size=sample, replace=False)
        pairs = [pairs[i] for i in indices]
    flows = session_max_flow(graph, pairs)
    return min(flows.values())
