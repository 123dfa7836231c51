"""Unit tests for the L-maximum-hop access extension."""

import numpy as np
import pytest

from repro.infrastructure.backbone import Backbone
from repro.routing.scheme_l import SchemeL
from repro.simulation.network import HybridNetwork
from repro.simulation.traffic import permutation_traffic
from tests.test_backbone_loads import TRIVIAL_BS, networkx_colours


def build(rng, n=120, k=6, r_t=0.08, max_hops=2, c=10.0, zones=1):
    ms = rng.random((n, 2))
    bs = rng.random((k, 2))
    ms_zone = np.zeros(n, dtype=int) if zones == 1 else rng.integers(0, zones, n)
    bs_zone = np.zeros(k, dtype=int) if zones == 1 else np.arange(k) % zones
    backbone = Backbone(k, c)
    return SchemeL(ms, bs, ms_zone, bs_zone, backbone, r_t, max_hops)


class TestConstruction:
    def test_invalid_args(self, rng):
        ms, bs = rng.random((5, 2)), rng.random((2, 2))
        zones = np.zeros(5, int), np.zeros(2, int)
        backbone = Backbone(2, 1.0)
        with pytest.raises(ValueError):
            SchemeL(ms, bs, *zones, backbone, transmission_range=0.1, max_hops=0)
        with pytest.raises(ValueError):
            SchemeL(ms, bs, *zones, backbone, transmission_range=0.0)
        with pytest.raises(ValueError):
            SchemeL(ms, bs, np.zeros(4, int), np.zeros(2, int), backbone, 0.1)

    def test_l1_hops_are_direct_contacts(self, rng):
        scheme = build(rng, max_hops=1)
        finite = scheme.hop_counts[np.isfinite(scheme.hop_counts)]
        assert np.all(finite == 1.0) or finite.size == 0


class TestCoverage:
    def test_coverage_grows_with_l(self, rng):
        ms = rng.random((200, 2))
        bs = rng.random((4, 2))
        zones = np.zeros(200, int), np.zeros(4, int)
        coverages = []
        for max_hops in (1, 2, 4):
            scheme = SchemeL(
                ms, bs, *zones, Backbone(4, 1.0), transmission_range=0.06,
                max_hops=max_hops,
            )
            coverages.append(scheme.coverage)
        assert coverages[0] <= coverages[1] <= coverages[2]
        assert coverages[2] > coverages[0]

    def test_full_coverage_with_generous_budget(self, rng):
        scheme = build(rng, r_t=0.2, max_hops=8)
        assert scheme.coverage == 1.0


class TestSustainableRate:
    def test_positive_when_covered(self, rng):
        scheme = build(rng, r_t=0.2, max_hops=4)
        traffic = permutation_traffic(rng, 120)
        result = scheme.sustainable_rate(traffic)
        assert result.per_node_rate > 0
        assert result.bottleneck in ("access", "backbone")
        assert 0 < result.details["coverage"] <= 1

    def test_uncovered_gives_zero(self, rng):
        scheme = build(rng, r_t=0.01, max_hops=1)
        traffic = permutation_traffic(rng, 120)
        result = scheme.sustainable_rate(traffic)
        assert result.per_node_rate == 0.0
        assert result.bottleneck == "uncovered-ms"

    def test_hop_work_trades_against_coverage(self, rng):
        """Larger L covers more MSs but each served packet costs more
        transmissions: with everyone already covered at L=1, raising L
        cannot raise the rate."""
        ms = np.random.default_rng(0).random((150, 2))
        bs = np.random.default_rng(1).random((12, 2))
        zones = np.zeros(150, int), np.zeros(12, int)
        traffic = permutation_traffic(np.random.default_rng(2), 150)
        rates = {}
        for max_hops in (2, 4):
            scheme = SchemeL(
                ms, bs, *zones, Backbone(12, 100.0), transmission_range=0.25,
                max_hops=max_hops,
            )
            assert scheme.coverage == 1.0
            rates[max_hops] = scheme.sustainable_rate(traffic).per_node_rate
        assert rates[4] <= rates[2] * 1.5  # no miracle from extra hops

    def test_delay_proxy_constant_in_n(self):
        """The access path length (the [9] delay claim) stays <= L as n
        grows, unlike scheme A's Theta(f) routes."""
        for n in (100, 400):
            rng = np.random.default_rng(n)
            scheme = build(rng, n=n, k=8, r_t=0.15, max_hops=3)
            finite = scheme.hop_counts[np.isfinite(scheme.hop_counts)]
            assert finite.size > 0
            assert finite.max() <= 3

    def test_session_count_mismatch(self, rng):
        scheme = build(rng)
        with pytest.raises(ValueError):
            scheme.sustainable_rate(permutation_traffic(rng, 10))

    def test_zoned_backbone_flow(self, rng):
        scheme = build(rng, n=100, k=8, r_t=0.25, max_hops=3, zones=2, c=1e-6)
        traffic = permutation_traffic(rng, 100)
        result = scheme.sustainable_rate(traffic)
        if result.per_node_rate > 0:
            assert result.bottleneck == "backbone"


def conflict_distance(scheme):
    return (scheme.max_hops + 1.0 + scheme._delta) * scheme._range


class TestColouring:
    """The TDMA groups equal networkx's largest-first colouring of the dense
    ``k x k`` conflict graph."""

    @pytest.mark.parametrize("max_hops", [1, 2, 3])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_trivial_bs_rows(self, seed, max_hops):
        net = HybridNetwork.build(TRIVIAL_BS.parameters, 2000, np.random.default_rng(seed))
        k = net.bs_positions.shape[0]
        scheme = SchemeL(
            net.home_model.points, net.bs_positions, net.home_model.assignment,
            net._bs_cluster_assignment(), net.backbone, transmission_range=0.02,
            max_hops=max_hops,
        )
        assert k > 100 and scheme.group_count > 1
        np.testing.assert_array_equal(
            scheme._groups, networkx_colours(scheme, conflict_distance(scheme))
        )

    @pytest.mark.parametrize(
        "k, r_t", [(1, 0.1), (2, 0.3), (12, 0.05), (40, 0.02), (40, 0.2)]
    )
    def test_random_layouts(self, rng, k, r_t):
        # r_t = 0.2 puts the conflict distance past a third of the torus
        scheme = build(rng, n=60, k=k, r_t=r_t)
        np.testing.assert_array_equal(
            scheme._groups, networkx_colours(scheme, conflict_distance(scheme))
        )
