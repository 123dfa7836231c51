"""The physical (SINR) interference model (extension).

The paper analyses the protocol model only, but the literature it builds on
(Gupta-Kumar and successors) establishes every scaling result under the
*physical model* as well: a transmission from ``i`` to ``j`` succeeds when

``SINR_j = P g(d_ij) / (N0 + sum_{l != i active} P g(d_lj)) >= beta``

with power-law path gain ``g(d) = min(1, d^-alpha_pl)``.  For
``beta > 1`` the SINR constraint implies a protocol-style exclusion region
around every receiver, so the protocol-model capacity orders carry over;
the SINR ablation benchmark verifies that equivalence empirically on this
implementation.

Provides feasibility checks mirroring :class:`ProtocolModel` and a greedy
SINR-feasible scheduler mirroring :class:`GreedyMatchingScheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..geometry.torus import pairwise_distances
from .protocol_model import Link
from .scheduler import Schedule, Scheduler

__all__ = ["PhysicalModel", "GreedySINRScheduler"]


@dataclass(frozen=True)
class PhysicalModel:
    """SINR feasibility under power-law path loss.

    Parameters
    ----------
    path_loss_exponent:
        ``alpha_pl > 2`` (4 is the classical default for ground links).
    sinr_threshold:
        Decoding threshold ``beta``; ``beta > 1`` gives the protocol-model
        equivalence.
    noise_power:
        Ambient noise ``N0`` (same units as received power).
    tx_power:
        Common transmit power ``P``.
    near_field:
        Distance below which the power law is clamped, ``g(d) =
        (max(d, near_field))^-alpha_pl``.  Must be small against the unit
        torus so gains actually vary across it.
    """

    path_loss_exponent: float = 4.0
    sinr_threshold: float = 2.0
    noise_power: float = 1e-4
    tx_power: float = 1.0
    near_field: float = 1e-3

    def __post_init__(self):
        if self.path_loss_exponent <= 2:
            raise ValueError(
                f"path-loss exponent must exceed 2, got {self.path_loss_exponent}"
            )
        if self.sinr_threshold <= 0:
            raise ValueError(
                f"SINR threshold must be positive, got {self.sinr_threshold}"
            )
        if self.noise_power < 0 or self.tx_power <= 0:
            raise ValueError("noise must be >= 0 and power > 0")
        if not (0 < self.near_field < 0.5):
            raise ValueError(
                f"near-field clamp must be in (0, 0.5), got {self.near_field}"
            )

    # ------------------------------------------------------------------
    def gain(self, distance: np.ndarray) -> np.ndarray:
        """Path gain ``(max(d, near_field))^-alpha_pl``."""
        distance = np.asarray(distance, dtype=float)
        return np.maximum(distance, self.near_field) ** -self.path_loss_exponent

    def link_sinrs(
        self,
        positions: np.ndarray,
        links: Sequence[Link],
        distances: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """SINR at every receiver of a simultaneous link set."""
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        links = list(links)
        if not links:
            return np.empty(0)
        if distances is None:
            distances = pairwise_distances(positions)
        gains = self.gain(distances)
        transmitters = np.array([tx for tx, _ in links])
        receivers = np.array([rx for _, rx in links])
        sinrs = np.empty(len(links))
        for index, (tx, rx) in enumerate(links):
            signal = self.tx_power * gains[tx, rx]
            others = transmitters[transmitters != tx]
            interference = self.tx_power * float(gains[others, rx].sum())
            sinrs[index] = signal / (self.noise_power + interference)
        return sinrs

    def is_feasible_schedule(
        self,
        positions: np.ndarray,
        links: Sequence[Link],
        distances: Optional[np.ndarray] = None,
    ) -> bool:
        """Whether every link of the set decodes at ``SINR >= beta``."""
        links = list(links)
        if not links:
            return True
        nodes = [node for link in links for node in link]
        if len(nodes) != len(set(nodes)):
            return False
        sinrs = self.link_sinrs(positions, links, distances=distances)
        return bool(np.all(sinrs >= self.sinr_threshold))

    def max_range(self) -> float:
        """Largest noise-limited range: ``SINR = P g(d) / N0 = beta``."""
        if self.noise_power == 0:
            return float("inf")
        return (
            self.tx_power / (self.noise_power * self.sinr_threshold)
        ) ** (1.0 / self.path_loss_exponent)


class GreedySINRScheduler(Scheduler):
    """Greedy maximal SINR-feasible matching.

    Candidate pairs within ``transmission_range`` are considered shortest
    first; a pair is kept when adding it leaves every already-selected link
    (and itself) above the SINR threshold.  The direct physical-model
    counterpart of :class:`GreedyMatchingScheduler`.
    """

    def __init__(self, transmission_range: float, model: PhysicalModel = None):
        if transmission_range <= 0:
            raise ValueError(
                f"transmission range must be positive, got {transmission_range}"
            )
        self._range = transmission_range
        self._model = model if model is not None else PhysicalModel()

    @property
    def physical_model(self) -> PhysicalModel:
        """The underlying SINR model."""
        return self._model

    def transmission_range(self, node_count: Optional[int] = None) -> float:
        return self._range

    def schedule(self, positions: np.ndarray) -> Schedule:
        # SINR feasibility aggregates interference from *every* transmitter,
        # so the dense gain matrix is inherent to the model.
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        distances = pairwise_distances(positions)
        gains = self._model.gain(distances)
        rows, cols = np.nonzero(np.triu(distances <= self._range, k=1))
        candidates = sorted(
            zip(rows.tolist(), cols.tolist()),
            key=lambda pair: distances[pair[0], pair[1]],
        )
        chosen: List[Link] = []
        used = np.zeros(positions.shape[0], dtype=bool)
        # incremental interference accounting: both endpoints of an accepted
        # pair transmit (the bandwidth is split between directions)
        interference = np.zeros(positions.shape[0])
        power = self._model.tx_power
        noise = self._model.noise_power
        beta = self._model.sinr_threshold
        for a, b in candidates:
            if used[a] or used[b]:
                continue
            signal = power * gains[a, b]
            # SINR of the new pair against existing interference
            if signal < beta * (noise + interference[a]):
                continue
            if signal < beta * (noise + interference[b]):
                continue
            # impact of the new transmitters on already-chosen links
            added_a = power * gains[a]
            added_b = power * gains[b]
            degraded = False
            for x, y in chosen:
                for endpoint in (x, y):
                    new_interference = (
                        interference[endpoint]
                        + added_a[endpoint]
                        + added_b[endpoint]
                    )
                    if power * gains[x, y] < beta * (noise + new_interference):
                        degraded = True
                        break
                if degraded:
                    break
            if degraded:
                continue
            chosen.append((a, b))
            used[a] = used[b] = True
            interference += added_a + added_b
            # a node does not interfere with itself
            interference[a] -= added_a[a] + added_b[a]
            interference[b] -= added_a[b] + added_b[b]
        return Schedule(pairs=tuple(chosen), transmission_range=self._range)
