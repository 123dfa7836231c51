"""Stationary ergodic mobility processes around home-points (Definition 2).

The paper allows *arbitrary* movement patterns subject only to stationarity,
ergodicity and the stationary spatial distribution
``phi_i(X) ∝ s(f(n) ||X - X_i^h||)``.  The capacity results depend on the
process only through ``phi_i``, so this module offers several processes with
the same stationary law but very different sample paths, which the
benchmarks use to confirm process-insensitivity:

- :class:`IIDAroundHome` -- positions redrawn i.i.d. from ``phi_i`` each slot
  (the classical "i.i.d. mobility" extreme);
- :class:`MetropolisWalkAroundHome` -- a Metropolis random walk whose
  stationary distribution is *exactly* ``phi_i`` but whose displacement per
  slot is small (a Brownian-like extreme);
- :class:`WaypointAroundHome` -- random-waypoint trips between draws from
  ``phi_i`` (intermediate time correlation);
- :class:`StaticProcess` -- no movement (used for BSs and for the
  trivial-mobility equivalence checks, Theorem 8).
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..geometry.torus import wrap
from .shapes import MobilityShape

__all__ = [
    "MobilityProcess",
    "IIDAroundHome",
    "MetropolisWalkAroundHome",
    "WaypointAroundHome",
    "StaticProcess",
    "BrownianMotion",
    "HybridRandomWalk",
]


class MobilityProcess(abc.ABC):
    """A discrete-time mobility process for a population of nodes.

    ``home_points`` is copied, so the caller may go on using its array.
    """

    def __init__(self, home_points):
        self._home = np.atleast_2d(np.asarray(home_points, dtype=float)).copy()

    @property
    def home_points(self) -> np.ndarray:
        """Home-point coordinates, shape ``(count, 2)`` (read-only view)."""
        view = self._home.view()
        view.flags.writeable = False
        return view

    @property
    def count(self) -> int:
        """Number of nodes driven by this process."""
        return self._home.shape[0]

    @abc.abstractmethod
    def positions(self) -> np.ndarray:
        """Current node positions on the torus, shape ``(count, 2)``."""

    @abc.abstractmethod
    def step(self) -> np.ndarray:
        """Advance one time slot; returns the new positions."""


class IIDAroundHome(MobilityProcess):
    """Positions redrawn i.i.d. from the stationary law every slot."""

    def __init__(
        self,
        home_points: np.ndarray,
        shape: MobilityShape,
        scale: float,
        rng: np.random.Generator,
    ):
        super().__init__(home_points)
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self._shape = shape
        self._scale = float(scale)
        self._rng = rng
        self._positions = self._draw()

    def _draw(self) -> np.ndarray:
        offsets = self._shape.sample_offsets(self._rng, self.count, self._scale)
        return wrap(self._home + offsets)

    def positions(self) -> np.ndarray:
        return self._positions

    def step(self) -> np.ndarray:
        self._positions = self._draw()
        return self._positions


class MetropolisWalkAroundHome(MobilityProcess):
    """Metropolis random walk with stationary distribution exactly ``phi_i``.

    Each slot every node proposes a Gaussian displacement of standard
    deviation ``step_fraction * scale * D`` and accepts it with the Metropolis
    ratio ``s(|new offset|) / s(|old offset|)``; proposals leaving the support
    are always rejected.  Detailed balance makes ``phi_i`` the exact
    stationary law while sample paths are strongly time-correlated.
    """

    def __init__(
        self,
        home_points: np.ndarray,
        shape: MobilityShape,
        scale: float,
        rng: np.random.Generator,
        step_fraction: float = 0.25,
        burn_in: int = 32,
    ):
        super().__init__(home_points)
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        if not (0 < step_fraction <= 1):
            raise ValueError(f"step_fraction must be in (0, 1], got {step_fraction}")
        self._shape = shape
        self._scale = float(scale)
        self._rng = rng
        self._sigma = step_fraction * scale * shape.support_radius
        # start at the stationary law so no burn-in is strictly required;
        # a short burn-in decorrelates nodes initialised from a shared seed.
        self._offsets = shape.sample_offsets(rng, self.count, scale)
        for _ in range(burn_in):
            self._advance()

    def _advance(self) -> None:
        proposal = self._offsets + self._rng.normal(0.0, self._sigma, self._offsets.shape)
        current_radius = np.linalg.norm(self._offsets, axis=1) / self._scale
        proposal_radius = np.linalg.norm(proposal, axis=1) / self._scale
        density_now = self._shape.density(current_radius)
        density_new = self._shape.density(proposal_radius)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(density_now > 0, density_new / density_now, 1.0)
        accept = self._rng.random(self.count) < np.minimum(1.0, ratio)
        accept &= proposal_radius <= self._shape.support_radius
        self._offsets[accept] = proposal[accept]

    def positions(self) -> np.ndarray:
        return wrap(self._home + self._offsets)

    def step(self) -> np.ndarray:
        self._advance()
        return self.positions()


class WaypointAroundHome(MobilityProcess):
    """Random-waypoint motion between draws from the stationary law.

    Nodes move at ``speed`` (torus units per slot) in a straight line toward
    a waypoint drawn from ``phi_i``; on arrival a new waypoint is drawn.
    """

    def __init__(
        self,
        home_points: np.ndarray,
        shape: MobilityShape,
        scale: float,
        rng: np.random.Generator,
        speed: Optional[float] = None,
    ):
        super().__init__(home_points)
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self._shape = shape
        self._scale = float(scale)
        self._rng = rng
        # Default: cross the mobility disk in about 8 slots.
        self._speed = speed if speed is not None else scale * shape.support_radius / 4.0
        if self._speed <= 0:
            raise ValueError(f"speed must be positive, got {self._speed}")
        self._offsets = shape.sample_offsets(rng, self.count, scale)
        self._targets = shape.sample_offsets(rng, self.count, scale)

    def positions(self) -> np.ndarray:
        return wrap(self._home + self._offsets)

    def step(self) -> np.ndarray:
        direction = self._targets - self._offsets
        distance = np.linalg.norm(direction, axis=1)
        arrived = distance <= self._speed
        moving = ~arrived
        if np.any(moving):
            unit = direction[moving] / distance[moving, None]
            self._offsets[moving] += unit * self._speed
        if np.any(arrived):
            self._offsets[arrived] = self._targets[arrived]
            self._targets[arrived] = self._shape.sample_offsets(
                self._rng, int(np.sum(arrived)), self._scale
            )
        return self.positions()


class StaticProcess(MobilityProcess):
    """Nodes pinned at their home-points (base stations; static baselines)."""

    def positions(self) -> np.ndarray:
        return wrap(self._home)

    def step(self) -> np.ndarray:
        return self.positions()


class BrownianMotion(MobilityProcess):
    """Unrestricted Brownian motion on the torus (Lin et al., cited in
    Remark 4 as a special case of the paper's model with ``m = Theta(n)``
    and ``f = Theta(1)``).

    Each slot every node takes an isotropic Gaussian step of standard
    deviation ``sigma``; the stationary distribution is uniform on the
    torus.  ``home_points`` double as the initial positions.
    """

    def __init__(
        self,
        initial_positions: np.ndarray,
        sigma: float,
        rng: np.random.Generator,
    ):
        super().__init__(initial_positions)
        if sigma <= 0:
            raise ValueError(f"step deviation sigma must be positive, got {sigma}")
        self._sigma = float(sigma)
        self._rng = rng
        self._positions = wrap(self._home.copy())

    def positions(self) -> np.ndarray:
        return self._positions

    def step(self) -> np.ndarray:
        steps = self._rng.normal(0.0, self._sigma, self._positions.shape)
        self._positions = wrap(self._positions + steps)
        return self._positions


class HybridRandomWalk(MobilityProcess):
    """The hybrid random walk of Sharma-Mazumdar-Shroff (Remark 4).

    The torus is divided into ``cells_per_side^2`` square cells; each slot
    every node jumps to a uniformly random position inside a uniformly
    chosen cell adjacent to its current one (4-neighbourhood, wrap-around).
    The stationary distribution is uniform on the torus; the per-slot
    displacement is ``Theta(1/cells_per_side)``, interpolating between
    i.i.d. mobility (1 cell) and slow random walks (many cells).
    """

    def __init__(
        self,
        initial_positions: np.ndarray,
        cells_per_side: int,
        rng: np.random.Generator,
    ):
        super().__init__(initial_positions)
        if cells_per_side < 1:
            raise ValueError(
                f"cells_per_side must be >= 1, got {cells_per_side}"
            )
        self._side = int(cells_per_side)
        self._rng = rng
        self._positions = wrap(self._home.copy())

    def positions(self) -> np.ndarray:
        return self._positions

    def step(self) -> np.ndarray:
        side = self._side
        cells = np.floor(self._positions * side).astype(int)
        np.clip(cells, 0, side - 1, out=cells)
        moves = np.array([[0, 1], [0, -1], [1, 0], [-1, 0]])
        choice = self._rng.integers(0, 4, self.count)
        cells = np.mod(cells + moves[choice], side)
        offsets = self._rng.random((self.count, 2)) / side
        self._positions = wrap(cells / side + offsets)
        return self._positions
