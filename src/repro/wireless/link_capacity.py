"""Link capacity (Definition 9, Lemma 2, Corollary 1).

The link capacity between two nodes under a stationary scheduling policy is
the long-run fraction of time the pair is enabled.  For uniformly dense
networks under policy ``S*``, Lemma 2 reduces it to a contact probability:

``mu(i, j) = Theta( Pr{ d_ij <= c_T / sqrt(n) | home-points } )``

and Corollary 1 evaluates the probability through the mobility shape:

- MS <-> MS:  ``mu = Theta( f^2(n) * eta(f(n) d_h) / n )`` where ``eta`` is
  the convolution ``∫ s(|X - X0|) s(|X|) dX`` and ``d_h`` the home-point
  distance (eq. 6);
- MS <-> BS:  ``mu = Theta( f^2(n) * s(f(n) d_h) / n )`` (eq. 7, with the
  explicit constant ``pi c_T^2 / 2``).

This module provides both the closed forms and a Monte-Carlo estimator that
measures enabled-slot frequencies under an actual scheduler, which the test
suite uses to validate Lemma 2 empirically.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..mobility.processes import MobilityProcess
from ..mobility.shapes import MobilityShape
from .scheduler import Scheduler

__all__ = [
    "contact_probability_ms_ms",
    "contact_probability_ms_bs",
    "contact_probability_ms_ms_at_range",
    "contact_probability_ms_bs_at_range",
    "ms_bs_contact_kernel",
    "measure_link_capacities",
    "measure_activity_fraction",
]


def contact_probability_ms_ms_at_range(
    shape: MobilityShape,
    f: float,
    transmission_range: float,
    home_distance: np.ndarray,
) -> np.ndarray:
    """``Pr{d_ij <= R_T}`` for two MSs with home-points ``d_h`` apart.

    ``pi R_T^2 f^2 eta(f d_h) / Z^2`` with ``Z = ∫ s`` -- valid whenever
    ``R_T`` is small against the mobility radius ``D/f``.
    """
    home_distance = np.asarray(home_distance, dtype=float)
    z = shape.normalization()
    area = math.pi * transmission_range ** 2
    return area * (f ** 2) * shape.contact_kernel(f * home_distance) / (z ** 2)


def contact_probability_ms_bs_at_range(
    shape: MobilityShape,
    f: float,
    transmission_range: float,
    home_distance: np.ndarray,
) -> np.ndarray:
    """``Pr{d_il <= R_T}`` for an MS and a static BS ``d_h`` apart.

    Equation (8) of the paper generalised to arbitrary range:
    ``pi R_T^2 f^2 s(f d_h) / (2 Z)`` -- the BS does not move, so only one
    mobility density enters (the paper's factor 1/2 is kept for fidelity).
    """
    return ms_bs_contact_kernel(shape, f, transmission_range)(home_distance)


def ms_bs_contact_kernel(
    shape: MobilityShape, f: float, transmission_range: float
) -> Callable[[np.ndarray], np.ndarray]:
    """:func:`contact_probability_ms_bs_at_range` as a function of ``d_h``
    alone, with ``pi R_T^2 f^2`` and ``2 Z`` computed once.

    For callers that evaluate many distance blocks of one trial; every
    value is bit-identical to the one-shot call.
    """
    scale = math.pi * transmission_range ** 2 * (f ** 2)
    denominator = 2.0 * shape.normalization()

    def kernel(home_distance: np.ndarray) -> np.ndarray:
        home_distance = np.asarray(home_distance, dtype=float)
        return scale * shape.density(f * home_distance) / denominator

    return kernel


def contact_probability_ms_ms(
    shape: MobilityShape,
    f: float,
    n: int,
    home_distance: np.ndarray,
    c_t: float = 1.0,
) -> np.ndarray:
    """``Pr{d_ij <= c_T/sqrt(n)}`` for two MSs with home-points ``d_h`` apart
    (the ``S*`` range ``R_T = c_T / sqrt(n)``).

    This is Corollary 1's MS-MS link capacity (eq. (6)) up to ``Theta(1)``:
    in a uniformly dense network the enabling probability given contact is
    a constant (Lemma 3's complement).
    """
    return contact_probability_ms_ms_at_range(
        shape, f, c_t / math.sqrt(n), home_distance
    )


def contact_probability_ms_bs(
    shape: MobilityShape,
    f: float,
    n: int,
    home_distance: np.ndarray,
    c_t: float = 1.0,
) -> np.ndarray:
    """``Pr{d_il <= c_T/sqrt(n)}`` for an MS and a static BS ``d_h`` apart
    (the ``S*`` range): Corollary 1's MS-BS link capacity, eq. (7)."""
    return contact_probability_ms_bs_at_range(
        shape, f, c_t / math.sqrt(n), home_distance
    )


def measure_link_capacities(
    process: MobilityProcess,
    scheduler: Scheduler,
    slots: int,
    static_positions: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
) -> Dict[Tuple[int, int], float]:
    """Monte-Carlo link capacities: enabled-slot frequency per pair.

    ``static_positions`` (e.g. base stations) are appended after the mobile
    nodes, so pair indices ``>= process.count`` refer to static nodes.
    Returns a sparse dict ``{(i, j): capacity}`` over pairs enabled at least
    once (``i < j``).
    """
    if slots < 1:
        raise ValueError(f"need at least one slot, got {slots}")
    counts: Dict[Tuple[int, int], int] = {}
    for _ in range(slots):
        mobile = process.step()
        if static_positions is not None and len(static_positions):
            positions = np.vstack([mobile, static_positions])
        else:
            positions = mobile
        for i, j in scheduler.schedule(positions).pairs:
            key = (min(i, j), max(i, j))
            counts[key] = counts.get(key, 0) + 1
    return {pair: count / slots for pair, count in counts.items()}


def measure_activity_fraction(
    process: MobilityProcess,
    scheduler: Scheduler,
    slots: int,
    static_positions: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-node fraction of slots in which the node is scheduled.

    Lemma 3 asserts this is bounded below by a positive constant ``p``
    independent of ``n`` in uniformly dense networks under ``S*``.
    """
    if slots < 1:
        raise ValueError(f"need at least one slot, got {slots}")
    static_count = 0 if static_positions is None else len(static_positions)
    active = np.zeros(process.count + static_count, dtype=int)
    for _ in range(slots):
        mobile = process.step()
        if static_count:
            positions = np.vstack([mobile, static_positions])
        else:
            positions = mobile
        for node in scheduler.schedule(positions).active_nodes:
            active[node] += 1
    return active / slots
