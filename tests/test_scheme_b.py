"""Unit tests for routing scheme B (Definition 12 / Theorems 5 & 7)."""

import numpy as np
import pytest

from repro.infrastructure.backbone import Backbone
from repro.mobility.shapes import UniformDiskShape
from repro.routing.scheme_b import SchemeB
from repro.simulation.traffic import PermutationTraffic, permutation_traffic
from repro.wireless.link_capacity import contact_probability_ms_bs_at_range
from tests.test_scheme_b_vector import masked_matrix_oracle

SHAPE = UniformDiskShape(1.0)


def build_scheme(
    rng, n=120, k=24, cells_per_side=2, f=4.0, c=1.0, r_t=None
):
    homes = rng.random((n, 2))
    bs = rng.random((k, 2))
    ms_zone, bs_zone, _ = SchemeB.squarelet_zones(homes, bs, cells_per_side)
    r_t = r_t if r_t is not None else 0.4 / np.sqrt(n + k)
    access = masked_matrix_oracle(homes, bs, ms_zone, bs_zone, SHAPE, f, r_t)
    backbone = Backbone(k, c)
    return SchemeB(ms_zone, bs_zone, access, backbone)


class TestConstruction:
    def test_shape_mismatch_rejected(self):
        access = np.ones(10)
        backbone = Backbone(4, 1.0)
        with pytest.raises(ValueError):
            SchemeB(np.zeros(9, int), np.zeros(4, int), access, backbone)
        with pytest.raises(ValueError):
            SchemeB(np.zeros(10, int), np.zeros(3, int), access, backbone)
        with pytest.raises(ValueError):
            SchemeB(np.zeros(10, int), np.zeros(4, int), access, Backbone(5, 1.0))

    def test_squarelet_zones(self, rng):
        homes = rng.random((30, 2))
        bs = rng.random((8, 2))
        ms_zone, bs_zone, tess = SchemeB.squarelet_zones(homes, bs, 3)
        assert ms_zone.shape == (30,)
        assert bs_zone.shape == (8,)
        assert tess.cell_count == 9

    def test_access_vector_shape_and_support(self, rng):
        homes = rng.random((20, 2))
        bs = rng.random((5, 2))
        ms_zone, bs_zone, _ = SchemeB.squarelet_zones(homes, bs, 2)
        access = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, SHAPE, 4.0, 0.05
        )
        assert access.shape == (20,)
        assert np.all(access >= 0)


class TestAccessCapacity:
    def test_only_same_zone_bs_counted(self):
        """At ``f = 1`` the mobility disk covers the torus, so each MS has
        contact with both BSs; only its own zone's BS is summed."""
        homes = np.array([[0.1, 0.1], [0.9, 0.9]])
        bs = np.array([[0.15, 0.1], [0.85, 0.9]])
        ms_zone = np.array([0, 1])
        bs_zone = np.array([0, 1])
        access = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, SHAPE, 1.0, 0.05
        )
        own = contact_probability_ms_bs_at_range(
            SHAPE, 1.0, 0.05, np.array([0.05, 0.05])
        )
        assert np.allclose(access, own)
        assert np.all(access > 0)
        scheme = SchemeB(ms_zone, bs_zone, access, Backbone(2, 1.0))
        assert np.array_equal(scheme.ms_access_capacity(), access)

    def test_bs_set(self, rng):
        scheme = build_scheme(rng)
        all_bs = np.concatenate(
            [scheme.bs_set(z) for z in range(4)]
        )
        assert sorted(all_bs.tolist()) == list(range(24))


class TestSessionRoute:
    def test_route_structure(self, rng):
        scheme = build_scheme(rng)
        route = scheme.session_route(0, 1)
        assert {"source", "destination", "source_zone", "destination_zone",
                "phase1_bs", "phase3_bs", "backbone_wires"} <= set(route)

    def test_same_zone_no_backbone(self):
        ms_zone = np.array([0, 0])
        bs_zone = np.array([0])
        access = np.ones(2)
        scheme = SchemeB(ms_zone, bs_zone, access, Backbone(1, 1.0))
        assert scheme.session_route(0, 1)["backbone_wires"] == 0


class TestSustainableRate:
    def test_positive_with_dense_bs(self, rng):
        scheme = build_scheme(rng, n=150, k=60, f=2.0, r_t=0.05)
        traffic = permutation_traffic(rng, 150)
        result = scheme.sustainable_rate(traffic)
        assert result.per_node_rate > 0

    def test_bottleneck_tags(self, rng):
        scheme = build_scheme(rng, n=150, k=60, f=2.0, r_t=0.05)
        traffic = permutation_traffic(rng, 150)
        result = scheme.sustainable_rate(traffic)
        assert result.bottleneck in ("access", "backbone", "zone-without-bs")

    def test_zone_without_bs_gives_zero(self):
        # two zones, all BSs in zone 0, session crossing into zone 1
        ms_zone = np.array([0, 1])
        bs_zone = np.array([0, 0])
        access = np.ones(2)
        scheme = SchemeB(ms_zone, bs_zone, access, Backbone(2, 1.0))
        traffic = PermutationTraffic(np.array([1, 0]))
        result = scheme.sustainable_rate(traffic)
        assert result.per_node_rate == 0.0
        assert result.bottleneck == "zone-without-bs"

    def test_starved_backbone_binds(self):
        """With tiny wire capacity the backbone becomes the bottleneck.
        f = 2 makes the mobility disk cover the whole zone, so every MS has
        positive access capacity and the comparison is meaningful."""
        rich = build_scheme(np.random.default_rng(11), c=10.0, k=60, f=2.0, r_t=0.05)
        poor = build_scheme(np.random.default_rng(11), c=1e-6, k=60, f=2.0, r_t=0.05)
        traffic = permutation_traffic(np.random.default_rng(3), 120)
        assert poor.sustainable_rate(traffic).bottleneck == "backbone"
        assert rich.sustainable_rate(traffic).bottleneck == "access"
        assert poor.sustainable_rate(traffic).per_node_rate < \
            rich.sustainable_rate(traffic).per_node_rate

    def test_backbone_rate_scales_with_c(self, rng):
        """In the backbone-limited region the rate is proportional to c."""
        seed = 99
        def rate(c):
            scheme = build_scheme(
                np.random.default_rng(seed), c=c, k=60, r_t=0.05
            )
            traffic = permutation_traffic(np.random.default_rng(5), 120)
            result = scheme.sustainable_rate(traffic)
            assert result.bottleneck == "backbone"
            return result.per_node_rate

        assert rate(2e-5) / rate(1e-5) == pytest.approx(2.0, rel=1e-6)

    def test_session_count_mismatch(self, rng):
        scheme = build_scheme(rng)
        with pytest.raises(ValueError):
            scheme.sustainable_rate(permutation_traffic(rng, 10))

    def test_access_rate_is_half_min_capacity(self, rng):
        scheme = build_scheme(rng, n=100, k=80, r_t=0.08)
        traffic = permutation_traffic(rng, 100)
        result = scheme.sustainable_rate(traffic)
        expected = float(scheme.ms_access_capacity().min()) / 2.0
        assert result.details["access_rate"] == pytest.approx(expected)
