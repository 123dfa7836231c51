"""Static multi-hop baselines (Gupta-Kumar; Lemma 10 / Corollary 3).

Without infrastructure and with weak or trivial mobility, connectivity forces
the transmission range up to ``R_T = Theta(sqrt(gamma(n)))`` and per-node
capacity falls to ``Theta(1 / (n R_T))`` (Corollary 3).  The same flow model
with uniform nodes and ``R_T = sqrt(log n / (pi n))`` reproduces the classic
Gupta-Kumar ``Theta(1 / sqrt(n log n))`` bound, which the benchmarks use as
the static baseline of Table I.

The analysis is the standard protocol-model area argument:

- **supply**: receivers claim disjoint disks of radius ``Delta R_T / 2``, so
  at most ``S = min(n/2, 4 / (pi Delta^2 R_T^2))`` transmissions can run
  concurrently (each moving 1/2 bit per slot after direction sharing);
- **demand**: a session whose endpoints are ``d`` apart needs at least
  ``ceil(d / R_T)`` transmissions per bit;
- the uniform rate satisfies ``lambda * total_hops <= S / 2``.

Disconnected source-destination pairs (range below the connectivity
threshold) make the sustainable rate zero, mirroring Lemma 10's necessity
direction.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..geometry.torus import pairwise_distances
from .base import FlowResult, RoutingScheme

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..simulation.traffic import PermutationTraffic

__all__ = ["StaticMultihop"]


class StaticMultihop(RoutingScheme):
    """Protocol-model flow analysis of static multi-hop routing.

    Parameters
    ----------
    positions:
        Static node positions (for mobile networks in the weak/trivial
        regime, home-points are the natural snapshot).
    transmission_range:
        Common range ``R_T``.
    delta:
        Guard-zone constant.
    """

    def __init__(
        self, positions: np.ndarray, transmission_range: float, delta: float = 1.0
    ):
        if transmission_range <= 0:
            raise ValueError(
                f"transmission range must be positive, got {transmission_range}"
            )
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self._positions = np.atleast_2d(np.asarray(positions, dtype=float))
        self._range = float(transmission_range)
        self._delta = float(delta)
        self._distances = pairwise_distances(self._positions)
        adjacency = self._distances <= self._range
        np.fill_diagonal(adjacency, False)
        # local: keep scipy off the import path
        from scipy.sparse.csgraph import connected_components

        _, self._component = connected_components(adjacency, directed=False)

    @property
    def concurrency_bound(self) -> float:
        """Max simultaneous transmissions ``min(n/2, 4/(pi Delta^2 R_T^2))``."""
        n = self._positions.shape[0]
        packing = 4.0 / (math.pi * self._delta ** 2 * self._range ** 2)
        return min(n / 2.0, packing)

    def hop_count(self, source: int, destination: int) -> Optional[int]:
        """Lower bound on hops between two nodes; ``None`` when disconnected."""
        if self._component[source] != self._component[destination]:
            return None
        return max(1, int(math.ceil(self._distances[source, destination] / self._range)))

    def sustainable_rate(self, traffic: "PermutationTraffic") -> FlowResult:
        n = self._positions.shape[0]
        if traffic.session_count != n:
            raise ValueError(
                f"traffic has {traffic.session_count} sessions but the network "
                f"has {n} nodes"
            )
        total_hops = 0
        disconnected = 0
        for source, dest in traffic.pairs():
            hops = self.hop_count(source, dest)
            if hops is None:
                disconnected += 1
            else:
                total_hops += hops
        if disconnected:
            return FlowResult(
                per_node_rate=0.0,
                bottleneck="disconnected",
                details={"disconnected_sessions": disconnected},
            )
        # each concurrent transmission moves 1/2 bit per slot (direction split)
        supply = self.concurrency_bound / 2.0
        rate = supply / total_hops if total_hops else math.inf
        if not math.isfinite(rate):
            rate = 0.0
        return FlowResult(
            per_node_rate=rate,
            bottleneck="interference",
            details={
                "total_hops": total_hops,
                "concurrency_bound": self.concurrency_bound,
                "mean_hops": total_hops / n,
            },
        )
