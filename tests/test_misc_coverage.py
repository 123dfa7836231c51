"""Small-surface tests for branches not covered elsewhere."""

import numpy as np
import pytest

from repro.core.order import Order
from repro.mobility.shapes import ConeShape
from repro.simulation.network import HybridNetwork
from repro.core.regimes import NetworkParameters
from repro.wireless.physical_model import PhysicalModel


class TestOrderRendering:
    def test_repr_integer_poly(self):
        assert repr(Order(2)) == "Order(2)"

    def test_repr_fractional_poly(self):
        assert repr(Order("1/2")) == "Order('1/2')"

    def test_repr_with_log(self):
        assert repr(Order(1, 1)) == "Order('1', '1')"

    def test_coerce_rejects_nonpositive_constant(self):
        with pytest.raises(ValueError):
            Order(1) + 0

    def test_coerce_rejects_garbage(self):
        with pytest.raises(TypeError):
            Order(1) * "nope"

    def test_positive_constant_coerces_to_theta_one(self):
        assert Order(-1) + 3 == Order(0)


class TestPhysicalModelEdges:
    def test_zero_noise_infinite_range(self):
        model = PhysicalModel(noise_power=0.0)
        assert model.max_range() == float("inf")

    def test_empty_schedule_feasible(self):
        model = PhysicalModel()
        assert model.is_feasible_schedule(np.zeros((3, 2)), [])
        assert model.link_sinrs(np.zeros((3, 2)), []).size == 0


class TestHybridNetworkWithOtherShapes:
    def test_cone_shape_network(self, rng):
        params = NetworkParameters(alpha="1/4", cluster_exponent=1)
        net = HybridNetwork.build(params, 120, rng, shape=ConeShape(1.0))
        result = net.scheme_a().sustainable_rate(net.sample_traffic())
        assert result.per_node_rate > 0

    def test_invalid_shape_rejected(self, rng):
        from repro.mobility.shapes import UniformDiskShape

        class Broken(UniformDiskShape):
            def density(self, d):
                d = np.asarray(d, dtype=float)
                return np.where(d <= self.support_radius, d, 0.0)  # increasing

        params = NetworkParameters(alpha="1/4", cluster_exponent=1)
        with pytest.raises(ValueError):
            HybridNetwork.build(params, 50, rng, shape=Broken(1.0))


class TestSchemeBZoneDefaults:
    def test_default_squarelet_zones(self, rng):
        from repro.routing.scheme_b import SchemeB

        homes = rng.random((20, 2))
        bs = rng.random((4, 2))
        ms_zone, bs_zone, tess = SchemeB.squarelet_zones(homes, bs)
        assert tess.cells_per_side == 4  # documented default

    def test_single_bs_network(self, rng):
        """k = 1 degenerates gracefully (one zone, no backbone wires)."""
        from repro.infrastructure.backbone import Backbone
        from repro.routing.scheme_b import SchemeB
        from repro.simulation.traffic import permutation_traffic

        scheme = SchemeB(
            np.zeros(10, dtype=int),
            np.zeros(1, dtype=int),
            np.full(10, 0.05),
            Backbone(1, 1.0),
        )
        result = scheme.sustainable_rate(permutation_traffic(rng, 10))
        assert result.per_node_rate == pytest.approx(0.025)


class TestRealizedParameterEdges:
    def test_k_one_floor(self):
        params = NetworkParameters(
            alpha="1/4", cluster_exponent=1, bs_exponent=0, backbone_exponent=1
        )
        realized = params.realize(100)
        assert realized.k == 1

    def test_trivial_regime_network_static_positions(self, rng):
        params = NetworkParameters(
            alpha="3/4",
            cluster_exponent="1/4",
            cluster_radius_exponent="1/4",
            bs_exponent="3/4",
            backbone_exponent=1,
            validate=False,
        )
        net = HybridNetwork.build(params, 300, rng, mobility="static")
        scheme = net.scheme_c()
        assert scheme.cell_range > 0
