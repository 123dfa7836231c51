"""Radial mobility shapes ``s(d)``.

Definition 2 of the paper characterises each node's stationary spatial
distribution around its home-point by an *arbitrary*, non-increasing function
``s(d)`` with finite support: before normalisation,
``phi_i(X) ~ s(||X - X_i^h||)``, and after scaling the network to the unit
torus the distribution contracts by ``1/f(n)``.

A shape object provides:

- ``support_radius`` -- the constant ``D = sup{d : s(d) > 0}``;
- ``density(d)`` -- the (unnormalised) radial profile ``s(d)``;
- ``sample_offsets(rng, count, scale)`` -- i.i.d. draws from the normalised
  2-D distribution ``phi(X) ∝ s(|X| / scale)`` (so ``scale = 1/f(n)``);
- ``contact_kernel(d)`` -- the paper's
  ``eta(|X0|) = ∫ s(|X - X0|) s(|X|) dX``, the unnormalised probability
  density that two nodes whose home-points are ``d`` apart occupy the same
  location; it drives the MS-MS link capacity (Corollary 1, eq. (6)).
  It interpolates a quadrature table on evenly spaced knots by direct
  lookup, reproducing ``np.interp``'s arithmetic bit for bit (pinned by an
  oracle test against ``np.interp`` in ``tests/test_shapes.py``).

All shapes are validated to be non-increasing with finite support, matching
the paper's assumptions.

Shapes are immutable values (frozen dataclasses): two shapes are equal when
their class and parameters are, so the sampler's radial CDF and the
contact-kernel quadrature table are memoised per distinct shape value and
computed at most once per process, however many networks are built.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MobilityShape",
    "UniformDiskShape",
    "ConeShape",
    "TruncatedGaussianShape",
    "QuadraticDecayShape",
]


@dataclass(frozen=True)
class MobilityShape(abc.ABC):
    """Abstract radial profile ``s(d)`` (non-increasing, finite support)."""

    #: ``D = sup{d : s(d) > 0}`` (a constant, independent of ``n``).
    support_radius: float = 1.0

    def __post_init__(self):
        if self.support_radius <= 0:
            raise ValueError(
                f"support radius must be positive, got {self.support_radius}"
            )
        object.__setattr__(self, "support_radius", float(self.support_radius))

    @abc.abstractmethod
    def density(self, d: np.ndarray) -> np.ndarray:
        """Unnormalised ``s(d)`` evaluated element-wise (zero outside support)."""

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def validate(self, samples: int = 512) -> None:
        """Assert the paper's assumptions: non-negative, non-increasing,
        finite support, strictly positive at zero."""
        grid = np.linspace(0.0, self.support_radius, samples)
        values = self.density(grid)
        if np.any(values < 0):
            raise ValueError(f"{type(self).__name__}: s(d) must be non-negative")
        if np.any(np.diff(values) > 1e-9):
            raise ValueError(f"{type(self).__name__}: s(d) must be non-increasing")
        if values[0] <= 0:
            raise ValueError(f"{type(self).__name__}: s(0) must be positive")
        beyond = self.density(np.array([self.support_radius * 1.001 + 1e-9]))
        if beyond[0] != 0:
            raise ValueError(f"{type(self).__name__}: support must be finite")

    def normalization(self) -> float:
        """``∫_{R^2} s(|X|) dX = 2 pi ∫_0^D s(t) t dt`` (unit scale)."""
        radii, cdf = _radial_cdf(self)
        return float(cdf[-1])

    def sample_offsets(
        self, rng: np.random.Generator, count: int, scale: float = 1.0
    ) -> np.ndarray:
        """``count`` i.i.d. offsets from ``phi(X) ∝ s(|X|/scale)``.

        ``scale`` is the contraction factor ``1/f(n)``; the returned offsets
        have shape ``(count, 2)`` and magnitude at most
        ``scale * support_radius``.
        """
        radii, cdf = _radial_cdf(self)
        total = cdf[-1]
        quantiles = rng.random(count) * total
        rho = np.interp(quantiles, cdf, radii) * scale
        angle = rng.random(count) * 2.0 * math.pi
        return np.stack([rho * np.cos(angle), rho * np.sin(angle)], axis=-1)

    def contact_kernel(self, d: np.ndarray) -> np.ndarray:
        """``eta(d) = ∫ s(|X - (d,0)|) s(|X|) dX`` at unit scale.

        Interpolated in a quadrature table memoised per shape value;
        ``eta`` has support ``[0, 2D]`` and ``eta(0) = ∫ s^2``.  The knots
        are evenly spaced, so each entry's interval is found by direct
        lookup rather than ``np.interp``'s binary search; the result is
        bit-identical to ``np.interp(d, *table, right=0.0)``, including
        ``eta(d < 0) = eta(0)``, ``eta(2D)`` at the last knot, ``0`` beyond
        ``2D`` and NaN for NaN.
        """
        table = _kernel_table(self)
        knots, values = table
        d = np.asarray(d, dtype=float)
        # below 0 reads the first knot (np.interp's ``left``); NaN stays NaN
        inside = np.minimum(np.maximum(d, 0.0), knots[-1])
        # floor(d / h) is the interval up to one step of rounding, settled
        # against the knots themselves; fmin also sends NaN to a valid index
        j = np.fmin(inside * table.inverse_step, knots.size - 2).astype(np.intp)
        j -= inside < knots.take(j)
        j += inside >= table.upper.take(j)
        eta = table.slopes.take(j) * (inside - knots.take(j)) + values.take(j)
        return np.where(d > knots[-1], 0.0, eta)[()]


@functools.cache
def _radial_cdf(shape: MobilityShape) -> tuple:
    """Unnormalised radial mass ``2 pi ∫_0^rho s(t) t dt`` on a 2048-point
    grid (the numeric inverse-CDF sampler's resolution)."""
    radii = np.linspace(0.0, shape.support_radius, 2048)
    integrand = shape.density(radii) * radii * 2.0 * math.pi
    cdf = np.concatenate([[0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(radii)
    )])
    return radii, cdf


class _KernelTable(tuple):
    """``(separations, values)``, with what the contact-kernel lookup reads
    on every call: ``upper = separations[1:]``, the inverse knot step, and
    ``slopes[j]`` of interval ``j`` as ``np.interp`` computes it, plus a zero
    slope at the last knot so that ``eta(2D)`` reads ``values[-1]``."""

    def __new__(cls, separations: np.ndarray, values: np.ndarray):
        table = super().__new__(cls, (separations, values))
        table.upper = separations[1:]
        table.inverse_step = (separations.size - 1) / separations[-1]
        table.slopes = np.append(np.diff(values) / np.diff(separations), 0.0)
        return table


@functools.cache
def _kernel_table(shape: MobilityShape) -> _KernelTable:
    """``eta`` at 128 separations in ``[0, 2D]`` by 2-D quadrature."""
    big_d = shape.support_radius
    resolution = 192
    axis = np.linspace(-big_d, big_d, resolution)
    step = axis[1] - axis[0]
    xx, yy = np.meshgrid(axis, axis)
    base = shape.density(np.sqrt(xx ** 2 + yy ** 2))
    separations = np.linspace(0.0, 2.0 * big_d, 128)
    values = np.empty_like(separations)
    for idx, sep in enumerate(separations):
        shifted = shape.density(np.sqrt((xx - sep) ** 2 + yy ** 2))
        values[idx] = float(np.sum(base * shifted)) * step * step
    return _KernelTable(separations, values)


@dataclass(frozen=True)
class UniformDiskShape(MobilityShape):
    """``s(d) = 1`` for ``d <= D``: the node is uniform on a disk around its
    home-point.  This is the paper's canonical example and the special case
    matching i.i.d. mobility when ``D`` covers the whole (pre-normalisation)
    network."""

    def density(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        return np.where(d <= self.support_radius, 1.0, 0.0)

    def sample_offsets(self, rng, count, scale=1.0):
        # Analytic sampler: uniform on the disk of radius scale * D.
        radius = self.support_radius * scale
        angle = rng.random(count) * 2.0 * math.pi
        rho = radius * np.sqrt(rng.random(count))
        return np.stack([rho * np.cos(angle), rho * np.sin(angle)], axis=-1)


@dataclass(frozen=True)
class ConeShape(MobilityShape):
    """``s(d) = max(0, 1 - d/D)``: linear decay to the support edge."""

    def density(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        return np.maximum(0.0, 1.0 - d / self.support_radius)


@dataclass(frozen=True)
class TruncatedGaussianShape(MobilityShape):
    """Gaussian profile truncated at ``D``: ``s(d) = exp(-d^2 / 2 sigma^2)``
    for ``d <= D``, zero beyond."""

    #: Gaussian width parameter.
    sigma: float = 0.4

    def __post_init__(self):
        super().__post_init__()
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        object.__setattr__(self, "sigma", float(self.sigma))

    def density(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        values = np.exp(-0.5 * (d / self.sigma) ** 2)
        return np.where(d <= self.support_radius, values, 0.0)


@dataclass(frozen=True)
class QuadraticDecayShape(MobilityShape):
    """``s(d) = max(0, 1 - (d/D)^2)``: smooth parabolic decay."""

    def density(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        return np.maximum(0.0, 1.0 - (d / self.support_radius) ** 2)
