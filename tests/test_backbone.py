"""Unit tests for the wired BS backbone."""

import math

import pytest

from repro.infrastructure.backbone import Backbone, BackboneTopology


class TestConstruction:
    def test_full_mesh_edge_count(self):
        assert Backbone(6, 1.0).edge_count == 15

    def test_ring_edge_count(self):
        assert Backbone(6, 1.0, BackboneTopology.RING).edge_count == 6

    def test_star_edge_count(self):
        assert Backbone(6, 1.0, BackboneTopology.STAR).edge_count == 5

    def test_grid_connected(self):
        backbone = Backbone(7, 1.0, BackboneTopology.GRID)
        # every BS reachable from BS 0
        for target in range(7):
            assert backbone.route(0, target)[-1] == target

    def test_single_bs(self):
        backbone = Backbone(1, 1.0)
        assert backbone.edge_count == 0
        assert backbone.aggregate_bs_bandwidth == 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Backbone(0, 1.0)
        with pytest.raises(ValueError):
            Backbone(3, 0.0)

    def test_aggregate_bandwidth_full_mesh(self):
        # mu_c = (k-1) c
        assert Backbone(10, 0.5).aggregate_bs_bandwidth == pytest.approx(4.5)


class TestRouting:
    def test_full_mesh_direct(self):
        backbone = Backbone(5, 1.0)
        assert backbone.route(1, 4) == [1, 4]

    def test_self_route(self):
        assert Backbone(5, 1.0).route(2, 2) == [2]

    def test_ring_shortest_path(self):
        backbone = Backbone(8, 1.0, BackboneTopology.RING)
        assert len(backbone.route(0, 4)) == 5  # 4 hops

    def test_star_via_hub(self):
        backbone = Backbone(5, 1.0, BackboneTopology.STAR)
        assert backbone.route(2, 3) == [2, 0, 3]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Backbone(3, 1.0).route(0, 5)


class TestLoadAccounting:
    def test_add_flow_accumulates(self):
        backbone = Backbone(4, 2.0)
        backbone.add_flow(0, 1, 0.5)
        backbone.add_flow(0, 1, 0.7)
        assert backbone.max_edge_load() == pytest.approx(1.2)

    def test_negative_flow_rejected(self):
        with pytest.raises(ValueError):
            Backbone(3, 1.0).add_flow(0, 1, -1.0)

    def test_reset(self):
        backbone = Backbone(3, 1.0)
        backbone.add_flow(0, 1, 1.0)
        backbone.reset_load()
        assert backbone.max_edge_load() == 0.0

    def test_utilization_and_overload(self):
        backbone = Backbone(3, 2.0)
        backbone.add_flow(0, 1, 3.0)
        assert backbone.max_utilization() == pytest.approx(1.5)
        assert backbone.overloaded_edges() == [(0, 1)]

    def test_sustainable_scale(self):
        backbone = Backbone(3, 2.0)
        assert backbone.sustainable_scale() == math.inf
        backbone.add_flow(0, 1, 0.5)
        assert backbone.sustainable_scale() == pytest.approx(4.0)

    def test_multi_hop_flow_loads_every_edge(self):
        backbone = Backbone(5, 1.0, BackboneTopology.RING)
        backbone.add_flow(0, 2, 1.0)
        assert backbone.max_edge_load() == pytest.approx(1.0)
        assert len([e for e in backbone.edges()]) == 5


class TestSpreadFlow:
    def test_even_split(self):
        backbone = Backbone(6, 1.0)
        backbone.spread_flow([0, 1], [2, 3, 4], 6.0)
        # each of the 6 wires carries 1.0
        assert backbone.max_edge_load() == pytest.approx(1.0)

    def test_skips_self_pairs(self):
        backbone = Backbone(4, 1.0)
        backbone.spread_flow([0, 1], [1, 2], 4.0)
        # shares are 4.0/4 = 1.0; the (1,1) self-pair is dropped, so the
        # three real wires (0,1), (0,2), (1,2) carry 1.0 each
        assert backbone.max_edge_load() == pytest.approx(1.0)

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            Backbone(3, 1.0).spread_flow([], [1], 1.0)

    def test_negative_index_rejected(self):
        backbone = Backbone(3, 1.0)
        with pytest.raises(ValueError, match="BS index -1 out of range"):
            backbone.spread_flow([-1], [1], 2.0)
        assert backbone.overloaded_edges() == []
        assert backbone.max_edge_load() == 0.0

    def test_index_past_the_end_rejected(self):
        with pytest.raises(ValueError, match="BS index 99 out of range"):
            Backbone(3, 1.0).spread_flow([0], [99], 1.0)

    @pytest.mark.parametrize("topology", list(BackboneTopology))
    def test_indices_checked_on_every_topology(self, topology):
        # a self pair rides no wire, but its index must still exist
        with pytest.raises(ValueError, match="out of range"):
            Backbone(4, 1.0, topology).spread_flow([5], [5], 1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Backbone(3, 1.0).spread_flow([0], [1], -1.0)

    def test_overloaded_edges_are_sorted(self):
        backbone = Backbone(5, 1.0)
        backbone.spread_flow([4, 3], [1, 0], 8.0)
        backbone.add_flow(2, 1, 0.5)
        assert backbone.overloaded_edges() == [(0, 3), (0, 4), (1, 3), (1, 4)]


class TestTheorem5PhaseII:
    """The k^2 c scaling of backbone cut capacity."""

    def test_zone_to_zone_capacity_scales_with_k_squared(self):
        """Doubling the number of BSs per zone quadruples the wires between
        two zones, so the sustainable zone flow scales with k^2 c."""
        def max_flow(k_per_zone):
            backbone = Backbone(2 * k_per_zone, 1.0)
            src = list(range(k_per_zone))
            dst = list(range(k_per_zone, 2 * k_per_zone))
            backbone.spread_flow(src, dst, 1.0)
            return backbone.sustainable_scale()

        assert max_flow(8) / max_flow(4) == pytest.approx(4.0)
