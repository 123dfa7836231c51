"""Optimal routing scheme B (Definition 12) -- the infrastructure route.

The torus is partitioned into *zones* of constant area (squarelets in the
strong-mobility regime; whole clusters in the weak-mobility regime, Theorem
7's "squarelet replaced by a subnet").  A session is served in three phases:

- **Phase I**   the source MS relays its traffic to all BSs in its own zone
  over wireless links (sustaining ``Theta(k/n)`` per MS, Lemma 9);
- **Phase II**  the BSs of the source zone exchange the data with the BSs of
  the destination zone over the wired backbone, the flow spread evenly over
  all ``Nb(S) * Nb(D)`` wires;
- **Phase III** the BSs of the destination zone deliver wirelessly to the
  destination MS.

The flow analysis mirrors the proof of Theorem 5: the access constraint is
``lambda <= mu_i^A / 2`` per MS (up- and downlink share the node's wireless
access capacity ``mu_i^A = sum_l mu(X_i, Y_l)``), and Phase II is feasible
iff no wire is overloaded.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from ..geometry.neighbors import chunk_rows
from ..geometry.tessellation import SquareTessellation
from ..geometry.torus import batched_pairwise_distances
from ..infrastructure.backbone import Backbone
from ..mobility.shapes import MobilityShape
from ..wireless.link_capacity import ms_bs_contact_kernel
from .base import FlowResult, RoutingScheme

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..simulation.traffic import PermutationTraffic

__all__ = ["SchemeB", "zone_pair_sessions"]


def zone_pair_sessions(
    ms_zone: np.ndarray, destination: np.ndarray
) -> Tuple[Dict[Tuple[int, int], int], int]:
    """Ordered inter-zone session counts plus the intra-zone session count.

    Session ``i`` runs from MS ``i`` to MS ``destination[i]``.  The
    returned dict lists each ``(source_zone, dest_zone)`` key in
    **first-occurrence order over the session index** -- the insertion
    order of a loop over ``traffic.pairs()``.  That order matters because
    float addition is not associative: :meth:`Backbone.spread_scale` on
    non-mesh topologies accumulates float loads key by key, and scheme C
    issues its ``spread_flow`` calls in it, which the full mesh replays in
    call order on one wire per BS class pair.
    """
    ms_zone = np.asarray(ms_zone, dtype=np.int64)
    destination = np.asarray(destination, dtype=int)
    source_zone = ms_zone[: destination.shape[0]]
    dest_zone = ms_zone[destination]
    inter = source_zone != dest_zone
    intra = int(destination.shape[0] - np.count_nonzero(inter))
    sessions: Dict[Tuple[int, int], int] = {}
    if not inter.any():
        return sessions, intra
    sz = source_zone[inter]
    dz = dest_zone[inter]
    offset = int(min(sz.min(), dz.min()))
    width = int(max(sz.max(), dz.max())) - offset + 1
    codes = (sz - offset) * width + (dz - offset)
    unique, first, counts = np.unique(
        codes, return_index=True, return_counts=True
    )
    for position in np.argsort(first, kind="stable"):
        code = int(unique[position])
        key = (code // width + offset, code % width + offset)
        sessions[key] = int(counts[position])
    return sessions, intra


def _within_torus(y: np.ndarray, centre: float, limit: float) -> np.ndarray:
    """Whether each wrapped coordinate ``y`` lies within torus distance
    ``limit`` of ``centre``."""
    dy = np.abs(y - centre)
    return np.minimum(dy, 1.0 - dy) <= limit


class SchemeB(RoutingScheme):
    """Three-phase BS-assisted routing over arbitrary zones.

    Parameters
    ----------
    ms_zone, bs_zone:
        Zone index of every MS / BS.  Use
        :meth:`squarelet_zones` to build them from positions (strong
        regime) or pass cluster assignments directly (weak regime).
    ms_access:
        ``mu_i^A`` per MS, shape ``(n,)``: each MS's summed Corollary-1
        capacity to the BSs of its own zone (Lemma 9); build it with
        :meth:`zone_access_vector`.
    backbone:
        The wired BS network.
    """

    def __init__(
        self,
        ms_zone: np.ndarray,
        bs_zone: np.ndarray,
        ms_access: np.ndarray,
        backbone: Backbone,
    ):
        self._ms_zone = np.asarray(ms_zone, dtype=int)
        self._bs_zone = np.asarray(bs_zone, dtype=int)
        self._ms_access = np.asarray(ms_access, dtype=float)
        self._backbone = backbone
        if self._ms_access.shape != (self._ms_zone.shape[0],):
            raise ValueError(
                f"ms_access has shape {self._ms_access.shape} but must hold one "
                f"entry per MS ({self._ms_zone.shape[0]})"
            )
        if backbone.bs_count != self._bs_zone.shape[0]:
            raise ValueError(
                f"backbone has {backbone.bs_count} BSs but bs_zone has "
                f"{self._bs_zone.shape[0]}"
            )
        self._bs_by_zone: Dict[int, np.ndarray] = {
            int(zone): np.nonzero(self._bs_zone == zone)[0]
            for zone in np.unique(self._bs_zone)
        }

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    @staticmethod
    def squarelet_zones(
        ms_home: np.ndarray, bs_positions: np.ndarray, cells_per_side: int = 4
    ) -> Tuple[np.ndarray, np.ndarray, SquareTessellation]:
        """Constant-area squarelet zones (strong-mobility regime).

        ``cells_per_side`` is ``Theta(1)`` per Definition 12.
        """
        tess = SquareTessellation(cells_per_side)
        return tess.cell_of(ms_home), tess.cell_of(bs_positions), tess

    @staticmethod
    def zone_access_vector(
        ms_home: np.ndarray,
        bs_positions: np.ndarray,
        ms_zone: np.ndarray,
        bs_zone: np.ndarray,
        shape: MobilityShape,
        f: float,
        transmission_range: float,
        chunk_size: Optional[int] = None,
    ) -> np.ndarray:
        """``mu_i^A`` per MS, zone-blocked and chunked so no ``n x k``
        matrix is ever materialised.

        Only in-zone ``(MS, BS)`` pairs reach the distance and contact
        kernels: each zone's MSs meet that zone's BSs, ``chunk_size`` MSs
        at a time (by default :func:`~repro.geometry.neighbors.chunk_rows`
        of ``k``, so a block stays cache-sized).  A zone's MSs are grouped
        by global ``y``-strips of height ``h = 1/floor(1/reach)``, with
        ``reach = D/f`` plus a relative margin of ``1e-9``; each strip meets
        only the zone's BSs within torus ``y``-distance ``h/2 + reach`` of
        its centre.  A zone with fewer MSs than one block per occupied
        strip stays one group that meets all its BSs: there, strips would
        only add blocks.  Within a group, MSs and BSs are taken in order of
        wrapped ``x``, and each block meets only the BSs within
        ``x``-distance ``reach`` of its ``x``-range (a ``searchsorted``
        slice of the group's BS ``x``-list tripled across the torus seam).
        The density is exactly 0 beyond its support, so no pair left out
        could add anything but ``0.0``.  A block's values are scattered into
        full-width ``(rows, k)`` zero rows of one per-call buffer
        (re-zeroed after each block) and summed there -- so every entry is
        bit-identical to the zone-masked row sum of the full ``n x k``
        Corollary-1 matrix (``masked_matrix_oracle`` in
        ``tests/test_scheme_b_vector.py``).  MSs of a zone without BSs, or
        of a strip that meets none of its zone's BSs, get ``0.0``.
        """
        ms_home = np.atleast_2d(np.asarray(ms_home, dtype=float))
        bs_positions = np.atleast_2d(np.asarray(bs_positions, dtype=float))
        ms_zone = np.asarray(ms_zone, dtype=int)
        bs_zone = np.asarray(bs_zone, dtype=int)
        k = bs_zone.shape[0]
        chunk_size = chunk_rows(k, chunk_size)
        access = np.zeros(ms_home.shape[0])
        padded = np.zeros((min(chunk_size, ms_home.shape[0]), k))
        reach = shape.support_radius / f * (1.0 + 1e-9)
        contact = ms_bs_contact_kernel(shape, f, transmission_range)
        strips = max(1, math.floor(1.0 / reach))
        height = 1.0 / strips
        # a BS within reach of a strip's MS lies within half a strip plus
        # reach of the strip's centre; reach's relative margin absorbs the
        # rounding of the centre and of the fold
        limit = 0.5 * height + reach
        centres = (np.arange(strips) + 0.5) * height
        ms_x = np.mod(ms_home[:, 0], 1.0)
        bs_x = np.mod(bs_positions[:, 0], 1.0)
        ms_strip = np.minimum(
            (np.mod(ms_home[:, 1], 1.0) * strips).astype(np.intp), strips - 1
        )
        bs_y = np.mod(bs_positions[:, 1], 1.0)
        ms_order = np.argsort(ms_x)
        bs_order = np.argsort(bs_x)
        ms_sorted_zone = ms_zone[ms_order]
        bs_sorted_zone = bs_zone[bs_order]
        for zone in np.unique(bs_zone):
            zone_rows = ms_order[ms_sorted_zone == zone]
            zone_cols = bs_order[bs_sorted_zone == zone]
            row_strip = ms_strip[zone_rows]
            counts = np.bincount(row_strip, minlength=strips)
            occupied = np.flatnonzero(counts)
            if zone_rows.size < occupied.size * chunk_size:
                # too few MSs to fill one block per strip: splitting would
                # add blocks and widen each block's x-range for little gain
                groups = [(zone_rows, zone_cols)]
            else:
                # the zone's MSs strip by strip, each strip still in x
                # order; a strip's BSs are picked only when it is reached
                zone_rows = zone_rows[np.argsort(row_strip, kind="stable")]
                ends = np.cumsum(counts)
                zone_y = bs_y[zone_cols]
                groups = (
                    (
                        zone_rows[ends[strip] - counts[strip] : ends[strip]],
                        zone_cols[_within_torus(zone_y, centres[strip], limit)],
                    )
                    for strip in occupied
                )
            for rows, cols in groups:
                if cols.size == 0:
                    continue
                # any cols.size consecutive ring entries hold each BS once
                ring = np.concatenate((cols, cols, cols))
                x = bs_x[cols]
                ring_x = np.concatenate((x - 1.0, x, x + 1.0))
                for begin in range(0, rows.size, chunk_size):
                    block = rows[begin : begin + chunk_size]
                    lo = np.searchsorted(ring_x, ms_x[block[0]] - reach)
                    hi = np.searchsorted(ring_x, ms_x[block[-1]] + reach, "right")
                    window = ring[lo : min(hi, lo + cols.size)]
                    distances = batched_pairwise_distances(
                        ms_home[block], bs_positions[window]
                    )
                    buffer = padded[: block.size]
                    buffer[:, window] = contact(distances)
                    access[block] = buffer.sum(axis=1)
                    buffer[:, window] = 0.0
        return access

    # ------------------------------------------------------------------
    # per-phase quantities
    # ------------------------------------------------------------------
    @property
    def ms_count(self) -> int:
        """Number of mobile stations."""
        return self._ms_zone.shape[0]

    def ms_access_capacity(self) -> np.ndarray:
        """``mu_i^A``: each MS's aggregate capacity to the BSs of its zone
        (Lemma 9), shape ``(n,)``."""
        return self._ms_access

    def bs_set(self, zone: int) -> np.ndarray:
        """BS indices in one zone."""
        return self._bs_by_zone.get(int(zone), np.empty(0, dtype=int))

    def session_route(self, source: int, destination: int) -> Dict[str, object]:
        """Trace the three phases of one session (used for Figure 2)."""
        source_zone = int(self._ms_zone[source])
        dest_zone = int(self._ms_zone[destination])
        return {
            "source": source,
            "destination": destination,
            "source_zone": source_zone,
            "destination_zone": dest_zone,
            "phase1_bs": self.bs_set(source_zone).tolist(),
            "phase3_bs": self.bs_set(dest_zone).tolist(),
            "backbone_wires": len(self.bs_set(source_zone)) * len(self.bs_set(dest_zone))
            if source_zone != dest_zone
            else 0,
        }

    # ------------------------------------------------------------------
    # flow analysis (Theorem 5 / 7 achievability)
    # ------------------------------------------------------------------
    def sustainable_rate(self, traffic: "PermutationTraffic") -> FlowResult:
        if traffic.session_count != self.ms_count:
            raise ValueError(
                f"traffic has {traffic.session_count} sessions but the network "
                f"has {self.ms_count} MSs"
            )
        # Phase I & III: lambda <= mu_i^A / 2 for every MS.
        access = self.ms_access_capacity()
        access_rate = float(access.min()) / 2.0
        worst_ms = int(access.argmin())
        # Phase II: accumulate unit-rate zone-to-zone flows on the backbone,
        # batched per ordered zone pair (sessions between the same zones
        # share the same wire set).
        sessions, intra_zone = zone_pair_sessions(
            self._ms_zone, traffic.destination
        )
        missing_bs = any(
            zone not in self._bs_by_zone for pair in sessions for zone in pair
        )
        backbone_rate = self._backbone.spread_scale(
            self._bs_zone,
            {pair: float(count) for pair, count in sessions.items()},
        )
        if missing_bs:
            # a zone with sessions but no BS cannot be served by scheme B
            return FlowResult(
                per_node_rate=0.0,
                bottleneck="zone-without-bs",
                details={"access_rate": access_rate},
            )
        rate = min(access_rate, backbone_rate)
        if not math.isfinite(rate):
            rate = access_rate
        # Lemma 9 is a statement about a *generic* MS; the median-MS rate
        # converges to the k/n order far faster than the strict minimum
        # (whose finite-size drift is documented in EXPERIMENTS.md)
        median_access = float(np.median(access)) / 2.0
        generic = min(median_access, backbone_rate)
        bottleneck = "access" if access_rate <= backbone_rate else "backbone"
        return FlowResult(
            per_node_rate=max(0.0, rate),
            bottleneck=bottleneck,
            details={
                "access_rate": access_rate,
                "backbone_rate": backbone_rate,
                "median_access_rate": median_access,
                "generic_rate": max(0.0, generic if math.isfinite(generic) else median_access),
                "worst_ms": worst_ms,
                "intra_zone_sessions": intra_zone,
            },
        )
