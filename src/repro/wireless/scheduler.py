"""Scheduling policies.

- :class:`PolicySStar` -- the paper's optimal policy ``S*`` (Definition 10):
  transmission range ``R_T = c_T / sqrt(n)``, a pair is enabled whenever the
  endpoints are within range and *every* other node is outside the
  ``(1 + Delta) R_T`` guard zone of both.  Enabled pairs are node-disjoint
  and interference-free by construction, and Theorem 2 proves order
  optimality among position-based policies.
- :class:`VariableRangeScheduler` -- the perturbed policy ``S-bar`` used in
  the proof of Theorem 2: identical rule with an arbitrary range (used by the
  ``R_T`` ablation benchmark to show any other order of range loses
  capacity).
- :class:`GreedyMatchingScheduler` -- a classical baseline: sort candidate
  links by length and greedily add links that remain protocol-model feasible
  against the links already chosen.  Less strict than ``S*`` (it tolerates
  inactive nodes inside guard zones), which lets it schedule in static
  clustered networks where ``S*``'s universal guard condition rarely holds.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.neighbors import CellGridIndex, adjacency_lists, pair_distances
from ..observability.log import get_logger
from .protocol_model import Link, ProtocolModel

_log = get_logger(__name__)

__all__ = [
    "Scheduler",
    "Schedule",
    "PolicySStar",
    "VariableRangeScheduler",
    "GreedyMatchingScheduler",
    "TDMACellScheduler",
]


@dataclass(frozen=True)
class Schedule:
    """One slot's outcome: the enabled unordered pairs and the range used.

    Under ``S*`` the wireless bandwidth (W = 1) of an enabled pair is shared
    equally between the two directions (Definition 10), so each direction of
    an enabled pair carries ``1/2`` bit per slot.
    """

    pairs: Tuple[Link, ...]
    transmission_range: float

    @property
    def active_nodes(self) -> frozenset:
        """All nodes participating in some enabled pair."""
        return frozenset(node for pair in self.pairs for node in pair)

    def __len__(self) -> int:
        return len(self.pairs)


class Scheduler(abc.ABC):
    """A stationary position-based scheduling policy."""

    @abc.abstractmethod
    def transmission_range(self, node_count: int) -> float:
        """The common range ``R_T`` used for a network of ``node_count`` nodes."""

    @abc.abstractmethod
    def schedule(self, positions: np.ndarray) -> Schedule:
        """Select the enabled pairs for one slot from current positions.

        A range-based policy builds one
        :class:`~repro.geometry.neighbors.CellGridIndex` over ``positions``
        per call.
        """


class PolicySStar(Scheduler):
    """The paper's policy ``S*`` with ``R_T = c_T / sqrt(n)``.

    Parameters
    ----------
    node_count:
        Total number of nodes ``n + k`` whose positions will be provided.
    c_t:
        The range constant ``c_T`` (Definition 10).
    delta:
        Guard-zone constant.
    """

    def __init__(self, node_count: int, c_t: float = 1.0, delta: float = 1.0):
        if node_count < 2:
            raise ValueError(f"need at least two nodes, got {node_count}")
        if c_t <= 0:
            raise ValueError(f"c_T must be positive, got {c_t}")
        self._c_t = c_t
        self._model = ProtocolModel(delta)
        self._range = c_t / math.sqrt(node_count)
        # Scheduling is the per-slot hot path, so instrumentation stays at
        # construction time: one DEBUG line, nothing per schedule() call.
        _log.debug(
            "PolicySStar: n=%d R_T=%.5f delta=%s", node_count, self._range, delta
        )

    @property
    def protocol_model(self) -> ProtocolModel:
        """The underlying interference model."""
        return self._model

    def transmission_range(self, node_count: Optional[int] = None) -> float:
        """``R_T = c_T / sqrt(n)`` (``node_count`` defaults to the configured one)."""
        if node_count is None:
            return self._range
        return self._c_t / math.sqrt(node_count)

    def schedule(self, positions: np.ndarray) -> Schedule:
        pairs = self._model.strict_pairs(positions, self._range)
        return Schedule(pairs=tuple(pairs), transmission_range=self._range)


class VariableRangeScheduler(Scheduler):
    """``S-bar``: the ``S*`` rule with an arbitrary fixed range (Theorem 2)."""

    def __init__(self, transmission_range: float, delta: float = 1.0):
        if transmission_range <= 0:
            raise ValueError(
                f"transmission range must be positive, got {transmission_range}"
            )
        self._range = transmission_range
        self._model = ProtocolModel(delta)

    def transmission_range(self, node_count: Optional[int] = None) -> float:
        return self._range

    def schedule(self, positions: np.ndarray) -> Schedule:
        pairs = self._model.strict_pairs(positions, self._range)
        return Schedule(pairs=tuple(pairs), transmission_range=self._range)


class GreedyMatchingScheduler(Scheduler):
    """Greedy maximal protocol-model matching baseline.

    Candidate links may be restricted (e.g. to the links a routing scheme
    wants served this slot); otherwise all in-range pairs are candidates,
    shortest first.  A link is added when its endpoints are unused and its
    receiver is outside the guard zone of every already-chosen transmitter
    (and vice versa), i.e. exactly Definition 4 against the chosen set.

    Candidates are served in ``(distance, a, b)`` order -- the endpoint
    tie-break keeps the outcome deterministic however the candidate set was
    enumerated.

    One ``pairs_within(guard)`` query on a
    :class:`~repro.geometry.neighbors.CellGridIndex` supplies both the
    in-range candidate pairs (``guard >= R_T``) and, as CSR neighbor lists,
    the strict-``< guard`` adjacency used to update the ``blocked`` mask --
    no dense row ever materialises.  The original per-link feasibility scan
    and the dense ``blocked``-mask loop are kept as oracles in
    ``tests/test_scheduler_equivalence.py``, which checks that all three
    select identical links in identical order.
    """

    def __init__(self, transmission_range: float, delta: float = 1.0):
        if transmission_range <= 0:
            raise ValueError(
                f"transmission range must be positive, got {transmission_range}"
            )
        self._range = transmission_range
        self._model = ProtocolModel(delta)

    def transmission_range(self, node_count: Optional[int] = None) -> float:
        return self._range

    def schedule(
        self,
        positions: np.ndarray,
        candidates: Optional[Sequence[Link]] = None,
    ) -> Schedule:
        """Greedy schedule over ``candidates`` (default: every in-range
        pair)."""
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        guard = self._model.guard_factor * self._range
        pair_i, pair_j, pair_d = CellGridIndex(positions).pairs_within(guard)
        node_count = positions.shape[0]
        strict = pair_d < guard
        indptr, indices = adjacency_lists(
            node_count, pair_i[strict], pair_j[strict]
        )
        if candidates is None:
            keep = pair_d <= self._range
            ordered = sorted(
                zip(
                    pair_d[keep].tolist(),
                    pair_i[keep].tolist(),
                    pair_j[keep].tolist(),
                )
            )
        else:
            listed = [(int(a), int(b)) for a, b in candidates]
            if listed:
                d = pair_distances(
                    positions,
                    np.array([a for a, _ in listed], dtype=np.int64),
                    np.array([b for _, b in listed], dtype=np.int64),
                )
                ordered = sorted(
                    (float(dist), a, b)
                    for (a, b), dist in zip(listed, d)
                    if dist <= self._range
                )
            else:
                ordered = []
        chosen: List[Link] = []
        used = np.zeros(node_count, dtype=bool)
        blocked = np.zeros(node_count, dtype=bool)
        for _, a, b in ordered:
            if used[a] or used[b] or blocked[a] or blocked[b]:
                continue
            chosen.append((a, b))
            used[a] = used[b] = True
            blocked[indices[indptr[a] : indptr[a + 1]]] = True
            blocked[indices[indptr[b] : indptr[b + 1]]] = True
        return Schedule(pairs=tuple(chosen), transmission_range=self._range)


class TDMACellScheduler(Scheduler):
    """The deterministic cellular TDMA of scheme C (Definition 13).

    Cells (one per BS) are coloured into non-interfering groups; group
    ``slot mod G`` is active each slot.  Within an active cell the BS serves
    its attached MSs round-robin, producing one (MS, BS) pair per active
    cell per slot.  Positions are ignored -- the trivial regime is static
    (Theorem 8) and the grouping already guarantees protocol-model
    feasibility at the cell range.

    Node indexing follows the engine convention: MSs ``0..n-1``, BS ``l``
    is node ``n + l``.
    """

    def __init__(
        self,
        cell_of_ms: np.ndarray,
        bs_colors: np.ndarray,
        ms_count: int,
        cell_range: float,
    ):
        cell_of_ms = np.asarray(cell_of_ms, dtype=int)
        bs_colors = np.asarray(bs_colors, dtype=int)
        if cell_of_ms.shape[0] != ms_count:
            raise ValueError(
                f"cell assignment covers {cell_of_ms.shape[0]} MSs, expected "
                f"{ms_count}"
            )
        if cell_range <= 0:
            raise ValueError(f"cell range must be positive, got {cell_range}")
        self._ms_count = ms_count
        self._colors = bs_colors
        self._range = float(cell_range)
        self._group_count = int(bs_colors.max()) + 1 if bs_colors.size else 1
        self._members = [
            np.nonzero(cell_of_ms == bs)[0] for bs in range(bs_colors.shape[0])
        ]
        self._pointer = np.zeros(bs_colors.shape[0], dtype=int)
        self._slot = 0
        _log.debug(
            "TDMACellScheduler: %d MS over %d cell(s) in %d group(s), "
            "range=%.5f",
            ms_count, bs_colors.shape[0], self._group_count, self._range,
        )

    @property
    def group_count(self) -> int:
        """Number of TDMA groups ``G``."""
        return self._group_count

    def transmission_range(self, node_count: Optional[int] = None) -> float:
        return self._range

    def schedule(self, positions: np.ndarray) -> Schedule:
        active_color = self._slot % self._group_count
        self._slot += 1
        pairs: List[Link] = []
        for bs, members in enumerate(self._members):
            if self._colors[bs] != active_color or members.size == 0:
                continue
            pick = members[self._pointer[bs] % members.size]
            self._pointer[bs] += 1
            pairs.append((int(pick), self._ms_count + bs))
        return Schedule(pairs=tuple(pairs), transmission_range=self._range)
