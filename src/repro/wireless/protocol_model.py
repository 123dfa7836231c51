"""The protocol (guard-zone) interference model (Definition 4).

All nodes share a common transmission range ``R_T``.  A transmission from
node ``i`` to node ``j`` succeeds iff

1. ``||Z_i - Z_j|| <= R_T``, and
2. every *other simultaneously transmitting* node ``l`` satisfies
   ``||Z_l - Z_j|| >= (1 + Delta) R_T``,

where the constant ``Delta > 0`` sets the guard-zone width.  The scheduling
policy ``S*`` of the paper (Definition 10) is stricter: it requires *every*
other node -- active or not -- to be outside the guard zone of both
endpoints; Theorem 2 shows the restriction costs nothing in order terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..geometry.neighbors import CellGridIndex, pair_distances
from ..geometry.torus import pairwise_distances, torus_distance

__all__ = ["ProtocolModel", "Link"]

Link = Tuple[int, int]


@dataclass(frozen=True)
class ProtocolModel:
    """Feasibility checks under the protocol interference model.

    Parameters
    ----------
    delta:
        Guard-zone constant ``Delta`` (Definition 4).  The paper only
        requires ``Delta > 0``; the classical default is 1.
    """

    delta: float = 1.0

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError(f"guard-zone constant Delta must be positive, got {self.delta}")

    @property
    def guard_factor(self) -> float:
        """``1 + Delta``: guard-zone radius in units of ``R_T``."""
        return 1.0 + self.delta

    # ------------------------------------------------------------------
    # feasibility of a candidate schedule
    # ------------------------------------------------------------------
    def is_feasible_schedule(
        self,
        positions: np.ndarray,
        links: Sequence[Link],
        transmission_range: float,
    ) -> bool:
        """Whether a set of simultaneous (tx, rx) links satisfies Definition 4.

        Vectorized over the link set (range checks and the transmitter ->
        receiver guard matrix in one shot); :meth:`violations` remains the
        loop transcription used for diagnostics, and both agree on every
        schedule (``tests/test_protocol_model.py``).
        """
        links = list(links)
        if not links:
            return True
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        tx = np.array([a for a, _ in links], dtype=np.int64)
        rx = np.array([b for _, b in links], dtype=np.int64)
        if np.any(tx == rx):
            return False
        endpoints = np.concatenate([tx, rx])
        if np.unique(endpoints).size != endpoints.size:
            return False
        if np.any(pair_distances(positions, tx, rx) > transmission_range):
            return False
        guard = self.guard_factor * transmission_range
        interference = pairwise_distances(positions[tx], positions[rx])
        offending = (
            (interference < guard)
            & (tx[:, None] != tx[None, :])
            & (tx[:, None] != rx[None, :])
        )
        return not bool(offending.any())

    def violations(
        self,
        positions: np.ndarray,
        links: Sequence[Link],
        transmission_range: float,
    ) -> List[str]:
        """Describe every protocol-model violation in a candidate schedule.

        Returns an empty list when the schedule is feasible.  Checks both the
        range condition on each link and the guard-zone condition of every
        receiver against every *other* transmitter.
        """
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        problems: List[str] = []
        links = list(links)
        if not links:
            return problems
        transmitters = np.array([tx for tx, _ in links])
        endpoints = set()
        for tx, rx in links:
            if tx == rx:
                problems.append(f"link ({tx}, {rx}) is a self-loop")
            for node in (tx, rx):
                if node in endpoints:
                    problems.append(f"node {node} participates in two links")
                endpoints.add(node)
        guard = self.guard_factor * transmission_range
        for tx, rx in links:
            distance = float(torus_distance(positions[tx], positions[rx]))
            if distance > transmission_range:
                problems.append(
                    f"link ({tx}, {rx}) exceeds range: d={distance:.4f} > "
                    f"R_T={transmission_range:.4f}"
                )
            other_tx = transmitters[transmitters != tx]
            if other_tx.size:
                interference = torus_distance(positions[other_tx], positions[rx])
                for offender, d in zip(other_tx, np.atleast_1d(interference)):
                    if offender != rx and d < guard:
                        problems.append(
                            f"transmitter {offender} is inside the guard zone of "
                            f"receiver {rx}: d={float(d):.4f} < {guard:.4f}"
                        )
        return problems

    # ------------------------------------------------------------------
    # S*-style strict feasibility (used by the scheduler)
    # ------------------------------------------------------------------
    def strict_pairs(
        self,
        positions: np.ndarray,
        transmission_range: float,
    ) -> List[Link]:
        """All unordered pairs enabled by policy ``S*`` (Definition 10).

        A pair ``(i, j)`` qualifies iff ``d_ij < R_T`` and every other node
        (active or not) is farther than ``(1 + Delta) R_T`` from *both*
        endpoints.  Equivalently: the guard disk of each endpoint contains
        exactly the two endpoints.  The returned pairs are automatically
        node-disjoint and interference-free.

        The candidates come from a
        :class:`~repro.geometry.neighbors.CellGridIndex` over ``positions``
        (``O(n)`` expected work and memory at the ``S*`` range).  Every pair
        that can influence the guard count lies within ``(1 + Delta) R_T``
        of one of its endpoints, so one ``pairs_within(guard)`` query
        yields both the in-range candidates and the per-node guard-disk
        occupancies (via ``bincount``).  The candidates arrive
        lexicographically sorted and their distances are bit-identical to
        the dense kernel's, so the result equals the loop transcription of
        Definition 10 and the dense-matrix formulation, which
        ``tests/test_scheduler_equivalence.py`` keeps as oracles.
        """
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        if transmission_range <= 0:
            return []
        count = positions.shape[0]
        guard = self.guard_factor * transmission_range
        i, j, dist = CellGridIndex(positions).pairs_within(guard)
        inside = dist < guard
        guard_count = (
            np.bincount(i[inside], minlength=count)
            + np.bincount(j[inside], minlength=count)
            + 1
        )
        lonely = guard_count == 2
        enabled = (dist < transmission_range) & lonely[i] & lonely[j]
        return [(int(a), int(b)) for a, b in zip(i[enabled], j[enabled])]

    def cross_cluster_interference_count(
        self,
        positions: np.ndarray,
        cluster_of: np.ndarray,
        transmission_range: float,
    ) -> int:
        """Number of node pairs in *different* clusters that fall inside each
        other's guard zone (Lemma 12 predicts zero w.h.p. at
        ``R_T = r sqrt(m/n)``)."""
        distances = pairwise_distances(np.atleast_2d(np.asarray(positions, dtype=float)))
        guard = self.guard_factor * transmission_range
        cluster_of = np.asarray(cluster_of)
        different = cluster_of[:, None] != cluster_of[None, :]
        close = distances < guard
        return int(np.sum(np.triu(different & close, k=1)))
