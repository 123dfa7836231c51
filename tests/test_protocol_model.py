"""Unit tests for the protocol interference model (Definition 4)."""

import numpy as np
import pytest

from repro.geometry.torus import pairwise_distances
from repro.wireless.protocol_model import ProtocolModel
from tests.test_scheduler_equivalence import (
    strict_pairs_reference,
    strict_pairs_vectorized,
)


def square_positions():
    """Four nodes on a small square plus one far away."""
    return np.array(
        [
            [0.10, 0.10],
            [0.12, 0.10],  # close to node 0
            [0.50, 0.50],
            [0.52, 0.50],  # close to node 2
            [0.90, 0.90],
        ]
    )


class TestConstruction:
    def test_guard_factor(self):
        assert ProtocolModel(delta=1.0).guard_factor == 2.0

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            ProtocolModel(delta=0.0)


class TestScheduleFeasibility:
    def test_empty_schedule_feasible(self):
        model = ProtocolModel()
        assert model.is_feasible_schedule(square_positions(), [], 0.05)

    def test_two_distant_links_feasible(self):
        model = ProtocolModel(delta=1.0)
        assert model.is_feasible_schedule(
            square_positions(), [(0, 1), (2, 3)], 0.05
        )

    def test_out_of_range_link_rejected(self):
        model = ProtocolModel()
        violations = model.violations(square_positions(), [(0, 4)], 0.05)
        assert any("exceeds range" in v for v in violations)

    def test_interfering_transmitters_rejected(self):
        positions = np.array(
            [[0.10, 0.10], [0.14, 0.10], [0.16, 0.10], [0.20, 0.10]]
        )
        model = ProtocolModel(delta=1.0)
        # transmitter 2 sits 0.02 from receiver 1 < guard 2*0.05
        violations = model.violations(positions, [(0, 1), (2, 3)], 0.05)
        assert any("guard zone" in v for v in violations)

    def test_node_reuse_rejected(self):
        model = ProtocolModel()
        violations = model.violations(square_positions(), [(0, 1), (1, 2)], 0.5)
        assert any("two links" in v for v in violations)

    def test_self_loop_rejected(self):
        model = ProtocolModel()
        violations = model.violations(square_positions(), [(0, 0)], 0.5)
        assert any("self-loop" in v for v in violations)


class TestStrictPairs:
    def test_isolated_close_pair_enabled(self):
        positions = np.array([[0.1, 0.1], [0.13, 0.1], [0.8, 0.8]])
        model = ProtocolModel(delta=1.0)
        assert model.strict_pairs(positions, 0.05) == [(0, 1)]

    def test_third_node_in_guard_blocks(self):
        positions = np.array([[0.1, 0.1], [0.13, 0.1], [0.16, 0.1]])
        model = ProtocolModel(delta=1.0)
        # node 2 is within guard (0.1) of node 1 -> no pair enabled
        assert model.strict_pairs(positions, 0.05) == []

    def test_pairs_are_node_disjoint(self, rng):
        positions = rng.random((60, 2))
        model = ProtocolModel(delta=1.0)
        pairs = model.strict_pairs(positions, 0.04)
        nodes = [node for pair in pairs for node in pair]
        assert len(nodes) == len(set(nodes))

    def test_strict_pairs_always_feasible(self, rng):
        """S*-enabled pairs must satisfy the (looser) protocol model."""
        model = ProtocolModel(delta=1.0)
        for _ in range(5):
            positions = rng.random((50, 2))
            pairs = model.strict_pairs(positions, 0.05)
            assert model.is_feasible_schedule(positions, pairs, 0.05)

    def test_matches_the_dense_oracle(self, rng):
        positions = rng.random((30, 2))
        model = ProtocolModel()
        distances = pairwise_distances(positions)
        assert strict_pairs_vectorized(distances, 0.05) == \
            model.strict_pairs(positions, 0.05)

    @pytest.mark.parametrize("radius", [0.03, 0.1, 0.4])
    def test_every_path_matches_the_reference_definition(self, rng, radius):
        """The sparse path and the dense oracle agree with the loop oracle
        on independent slices."""
        model = ProtocolModel(delta=0.5)
        for _ in range(5):
            positions = rng.random((50, 2))
            distances = pairwise_distances(positions)
            reference = strict_pairs_reference(distances, radius, 0.5)
            assert model.strict_pairs(positions, radius) == reference
            assert strict_pairs_vectorized(distances, radius, 0.5) == reference

    def test_nonpositive_range_enables_nothing(self, rng):
        model = ProtocolModel(delta=0.5)
        positions = rng.random((10, 2))
        assert model.strict_pairs(positions, 0.0) == []
        assert model.strict_pairs(positions, -0.1) == []

    def test_shared_index_matches_fresh_index(self, rng):
        """One per-slot index serves several ranges with unchanged pairs."""
        from repro.geometry.neighbors import CellGridIndex

        model = ProtocolModel(delta=0.5)
        positions = rng.random((120, 2))
        index = CellGridIndex(positions)
        for radius in (0.02, 0.05, 0.1, 0.3):
            assert model.strict_pairs(
                positions, radius, index=index
            ) == model.strict_pairs(positions, radius)


class TestCrossClusterInterference:
    def test_far_clusters_do_not_interfere(self, rng):
        centers = np.array([[0.2, 0.2], [0.8, 0.8]])
        cluster_of = np.repeat([0, 1], 20)
        positions = np.vstack(
            [
                centers[0] + 0.02 * (rng.random((20, 2)) - 0.5),
                centers[1] + 0.02 * (rng.random((20, 2)) - 0.5),
            ]
        )
        model = ProtocolModel(delta=1.0)
        assert model.cross_cluster_interference_count(positions, cluster_of, 0.01) == 0

    def test_overlapping_clusters_interfere(self, rng):
        positions = 0.5 + 0.01 * (rng.random((20, 2)) - 0.5)
        cluster_of = np.repeat([0, 1], 10)
        model = ProtocolModel(delta=1.0)
        assert model.cross_cluster_interference_count(positions, cluster_of, 0.05) > 0
