"""End-to-end network assembly: the main user-facing entry point.

:class:`HybridNetwork` realises one finite-``n`` network from a
:class:`NetworkParameters` family -- clustered home-points, matched (or
uniform / regular) base-station placement, a mobility process, the wired
backbone -- and builds the paper's communication schemes on top, pre-wired
with the regime-appropriate transmission ranges and zones.

Typical use::

    params = NetworkParameters(alpha="1/4", cluster_exponent=1,
                               bs_exponent="1/2", backbone_exponent=1)
    net = HybridNetwork.build(params, n=500, rng=np.random.default_rng(0))
    traffic = net.sample_traffic()
    print(net.sustainable_rate(traffic))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.capacity import Scheme, analyze, optimal_scheme
from ..core.regimes import MobilityRegime, NetworkParameters, RealizedParameters
from ..infrastructure.backbone import Backbone, BackboneTopology
from ..infrastructure.placement import (
    hexagonal_cluster_placement,
    regular_grid_placement,
    uniform_placement,
)
from ..mobility.clustered import ClusteredHomePoints, place_home_points
from ..mobility.processes import (
    IIDAroundHome,
    MetropolisWalkAroundHome,
    MobilityProcess,
    StaticProcess,
    WaypointAroundHome,
)
from ..mobility.shapes import MobilityShape, UniformDiskShape
from ..routing.base import FlowResult
from ..routing.scheme_a import SchemeA
from ..routing.scheme_b import SchemeB
from ..routing.scheme_c import SchemeC
from ..routing.static_multihop import StaticMultihop
from ..simulation.traffic import PermutationTraffic, permutation_traffic
from ..wireless.scheduler import PolicySStar

__all__ = ["HybridNetwork"]

_PLACEMENTS = ("matched", "uniform", "regular")
_MOBILITY_KINDS = ("iid", "metropolis", "waypoint", "static")


@dataclass
class HybridNetwork:
    """A realised hybrid mobile ad hoc network.

    Use :meth:`build` rather than the constructor; all attributes are then
    consistent with each other and with the parameter family.
    """

    parameters: NetworkParameters
    realized: RealizedParameters
    home_model: ClusteredHomePoints
    shape: MobilityShape
    bs_positions: Optional[np.ndarray]
    backbone: Optional[Backbone]
    process: MobilityProcess
    rng: np.random.Generator
    c_t: float
    delta: float
    #: cluster label of each BS (anchor cluster for matched placement,
    #: lattice cluster for the trivial regime, nearest centre otherwise)
    bs_cluster: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        parameters: NetworkParameters,
        n: int,
        rng: np.random.Generator,
        shape: Optional[MobilityShape] = None,
        placement: str = "matched",
        mobility: str = "iid",
        backbone_topology: BackboneTopology = BackboneTopology.FULL_MESH,
        c_t: float = 0.4,
        delta: float = 0.5,
    ) -> "HybridNetwork":
        """Realise a finite-``n`` instance of the parameter family.

        ``placement`` is one of ``matched`` (the paper's default, Section
        II-A), ``uniform`` or ``regular`` (Theorem 6 alternatives); for the
        trivial regime a per-cluster hexagonal lattice is used regardless,
        matching scheme C.  ``mobility`` is one of ``iid``, ``metropolis``,
        ``waypoint`` or ``static``.

        The defaults ``c_t = 0.4`` and ``delta = 0.5`` keep the ``S*``
        guard-emptiness constant ``exp(-2 pi ((1+Delta) c_T)^2)`` around 0.1
        so the policy schedules observably many pairs at simulation sizes;
        the asymptotic results hold for any positive constants.
        """
        if placement not in _PLACEMENTS:
            raise ValueError(f"placement must be one of {_PLACEMENTS}, got {placement!r}")
        if mobility not in _MOBILITY_KINDS:
            raise ValueError(f"mobility must be one of {_MOBILITY_KINDS}, got {mobility!r}")
        shape = shape if shape is not None else UniformDiskShape(1.0)
        shape.validate()
        realized = parameters.realize(n)
        home_model = place_home_points(rng, n, realized.m, realized.r)
        scale = shape.support_radius and (1.0 / realized.f)

        bs_positions = None
        bs_cluster = None
        backbone = None
        if parameters.has_infrastructure:
            k = realized.k
            if parameters.regime is MobilityRegime.TRIVIAL:
                per_cluster = max(1, round(k / home_model.cluster_count))
                bs_positions = hexagonal_cluster_placement(
                    home_model.centers, max(realized.r, 1e-9), per_cluster
                )
                bs_cluster = np.repeat(
                    np.arange(home_model.cluster_count), per_cluster
                )
            elif placement == "matched":
                # keep the anchor's cluster label: when cluster disks overlap
                # at finite n, re-deriving labels by nearest centre would
                # strand MSs whose neighbourhood is "owned" by another centre
                anchors = home_model.sample_more(rng, k)
                from ..geometry.torus import wrap as _wrap

                offsets = shape.sample_offsets(rng, k, scale)
                bs_positions = _wrap(anchors.points + offsets)
                bs_cluster = anchors.assignment
            elif placement == "uniform":
                bs_positions = uniform_placement(rng, k)
            else:
                bs_positions = regular_grid_placement(k)
            backbone = Backbone(
                bs_count=bs_positions.shape[0],
                edge_capacity=realized.c,
                topology=backbone_topology,
            )

        process = cls._make_process(mobility, home_model.points, shape, scale, rng)
        net = cls(
            parameters=parameters,
            realized=realized,
            home_model=home_model,
            shape=shape,
            bs_positions=bs_positions,
            backbone=backbone,
            process=process,
            rng=rng,
            c_t=c_t,
            delta=delta,
        )
        net.bs_cluster = bs_cluster
        return net

    @staticmethod
    def _make_process(
        kind: str,
        home_points: np.ndarray,
        shape: MobilityShape,
        scale: float,
        rng: np.random.Generator,
    ) -> MobilityProcess:
        if kind == "iid":
            return IIDAroundHome(home_points, shape, scale, rng)
        if kind == "metropolis":
            return MetropolisWalkAroundHome(home_points, shape, scale, rng)
        if kind == "waypoint":
            return WaypointAroundHome(home_points, shape, scale, rng)
        return StaticProcess(home_points)

    # ------------------------------------------------------------------
    # basic facts
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of mobile stations."""
        return self.realized.n

    @property
    def k(self) -> int:
        """Number of base stations (0 without infrastructure)."""
        return 0 if self.bs_positions is None else self.bs_positions.shape[0]

    @property
    def total_nodes(self) -> int:
        """MSs plus BSs."""
        return self.n + self.k

    def sample_traffic(self) -> PermutationTraffic:
        """Draw one permutation traffic pattern."""
        return permutation_traffic(self.rng, self.n)

    def scheduler(self) -> PolicySStar:
        """The ``S*`` policy sized for this network."""
        return PolicySStar(self.total_nodes, c_t=self.c_t, delta=self.delta)

    # ------------------------------------------------------------------
    # scheme factories
    # ------------------------------------------------------------------
    def scheme_a(self, cell_fraction: float = 0.7) -> SchemeA:
        """Routing scheme A over this network's home-points."""
        return SchemeA(
            self.home_model.points,
            self.shape,
            self.realized.f,
            c_t=self.c_t,
            cell_fraction=cell_fraction,
        )

    def access_transmission_range(self) -> float:
        """Regime-appropriate range for the MS-BS access phase.

        Strong regime: the ``S*`` range ``c_T/sqrt(n+k)``; weak regime:
        ``r sqrt(m/n)`` (Lemma 12); trivial regime: the scheme-C cell size is
        computed internally by :class:`SchemeC`.
        """
        if self.parameters.regime is MobilityRegime.STRONG:
            return self.c_t / math.sqrt(self.total_nodes)
        return self.realized.r * math.sqrt(self.realized.m / self.n)

    def scheme_b_zones(self, cells_per_side: Optional[int] = None):
        """The ``(ms_zone, bs_zone)`` assignment scheme B operates on:
        squarelet zones in the strong regime, cluster zones otherwise
        (Theorem 7).  Shared by :meth:`scheme_b` and the trial-batched
        sweep path, which computes each member's access vector with the
        same per-trial kernel."""
        if self.bs_positions is None or self.backbone is None:
            raise ValueError("scheme B needs infrastructure")
        if self.parameters.regime is MobilityRegime.STRONG:
            if cells_per_side is None:
                # Theta(1) zones (Definition 12); 2x2 keeps each zone larger
                # than the mobility disk at simulation sizes, so border MSs
                # still reach same-zone BSs
                cells_per_side = 2 if self.k >= 4 else 1
            ms_zone, bs_zone, _ = SchemeB.squarelet_zones(
                self.home_model.points, self.bs_positions, cells_per_side
            )
        else:
            ms_zone = self.home_model.assignment
            bs_zone = self._bs_cluster_assignment()
        return ms_zone, bs_zone

    def scheme_b(self, cells_per_side: Optional[int] = None) -> SchemeB:
        """Routing scheme B over this network's zones."""
        ms_zone, bs_zone = self.scheme_b_zones(cells_per_side)
        access = SchemeB.zone_access_vector(
            self.home_model.points,
            self.bs_positions,
            ms_zone,
            bs_zone,
            self.shape,
            self.realized.f,
            self.access_transmission_range(),
        )
        return SchemeB(ms_zone, bs_zone, access, self.backbone)

    def _bs_cluster_assignment(self) -> np.ndarray:
        """Cluster label of each BS (recorded at placement when available,
        else nearest cluster centre)."""
        if self.bs_cluster is not None:
            return self.bs_cluster
        from ..geometry.torus import pairwise_distances

        distances = pairwise_distances(self.bs_positions, self.home_model.centers)
        return distances.argmin(axis=1)

    def scheme_c(self) -> SchemeC:
        """Routing & scheduling scheme C (trivial regime)."""
        if self.bs_positions is None or self.backbone is None:
            raise ValueError("scheme C needs infrastructure")
        return SchemeC(
            ms_positions=self.process.positions(),
            bs_positions=self.bs_positions,
            ms_cluster=self.home_model.assignment,
            bs_cluster=self._bs_cluster_assignment(),
            backbone=self.backbone,
            delta=self.delta,
        )

    def static_baseline(self, transmission_range: Optional[float] = None) -> StaticMultihop:
        """The no-infrastructure multi-hop baseline (Corollary 3).

        Default range: ``sqrt(gamma(n))`` plus the mobility diameter, the
        connectivity-critical choice of Lemma 10.
        """
        if transmission_range is None:
            transmission_range = math.sqrt(self.realized.gamma)
        return StaticMultihop(
            self.home_model.points, transmission_range, delta=self.delta
        )

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------
    def sustainable_rate(self, traffic: Optional[PermutationTraffic] = None) -> FlowResult:
        """Flow-level sustainable rate under the regime-optimal scheme.

        In the strong regime with infrastructure the paper operates schemes A
        and B side by side and the capacities add (Theorem 5); we time-share
        the two and report the sum.
        """
        traffic = traffic if traffic is not None else self.sample_traffic()
        scheme = optimal_scheme(self.parameters)
        if scheme is Scheme.SCHEME_A:
            return self.scheme_a().sustainable_rate(traffic)
        if scheme is Scheme.STATIC_MULTIHOP:
            return self.static_baseline().sustainable_rate(traffic)
        if scheme is Scheme.SCHEME_C:
            return self.scheme_c().sustainable_rate(traffic)
        if scheme is Scheme.SCHEME_B:
            return self.scheme_b().sustainable_rate(traffic)
        # A + B: independent wireless phases -> rates add (Theorem 5)
        result_a = self.scheme_a().sustainable_rate(traffic)
        result_b = self.scheme_b().sustainable_rate(traffic)
        dominant = result_a if result_a.per_node_rate >= result_b.per_node_rate else result_b
        return FlowResult(
            per_node_rate=result_a.per_node_rate + result_b.per_node_rate,
            bottleneck=dominant.bottleneck,
            details={
                "scheme_a_rate": result_a.per_node_rate,
                "scheme_b_rate": result_b.per_node_rate,
                "scheme_a": result_a.details,
                "scheme_b": result_b.details,
            },
        )

    def theoretical(self):
        """Closed-form :class:`CapacityResult` for the family."""
        return analyze(self.parameters)
