"""Unit tests for SchemeB's memory-light access-vector path."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.infrastructure.backbone import Backbone
from repro.mobility.shapes import UniformDiskShape
from repro.routing.scheme_b import SchemeB
from repro.simulation.traffic import permutation_traffic

SHAPE = UniformDiskShape(1.0)


def make_inputs(rng, n=80, k=16, zones=2, f=3.0, r_t=0.05):
    homes = rng.random((n, 2))
    bs = rng.random((k, 2))
    ms_zone, bs_zone, _ = SchemeB.squarelet_zones(homes, bs, zones)
    return homes, bs, ms_zone, bs_zone, f, r_t


def masked_matrix_oracle(homes, bs, ms_zone, bs_zone, f, r_t):
    """Definition 12 literally: the full ``n x k`` matrix, zone-masked."""
    matrix = SchemeB.access_matrix(homes, bs, SHAPE, f, r_t)
    masked = np.where(ms_zone[:, None] == bs_zone[None, :], matrix, 0.0)
    return masked.sum(axis=1)


class TestZoneAccessVector:
    def test_matches_matrix_path(self, rng):
        homes, bs, ms_zone, bs_zone, f, r_t = make_inputs(rng)
        vector = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, SHAPE, f, r_t
        )
        assert np.array_equal(
            vector, masked_matrix_oracle(homes, bs, ms_zone, bs_zone, f, r_t)
        )

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 40),
        k=st.integers(1, 24),
        zones=st.integers(1, 6),
        bs_free_zone=st.booleans(),
        data=st.data(),
    )
    @example(seed=0, n=12, k=1, zones=3, bs_free_zone=True, data=None)
    def test_property_bit_identical_to_masked_matrix(
        self, seed, n, k, zones, bs_free_zone, data
    ):
        """Zone-blocking equals the masked ``n x k`` row sum bit-for-bit, at
        any zone count and chunk size; MSs of a zone without BSs get
        exactly 0.0."""
        chunk = 1 if data is None else data.draw(st.integers(1, n + 1))
        rng = np.random.default_rng(seed)
        homes, bs = rng.random((n, 2)), rng.random((k, 2))
        ms_zone = rng.integers(0, zones + int(bs_free_zone), size=n)
        # with bs_free_zone, zone ``zones`` holds MSs but never a BS
        bs_zone = rng.integers(0, zones, size=k)
        f, r_t = 1.0 + 3.0 * rng.random(), 0.02 + 0.4 * rng.random()
        vector = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, SHAPE, f, r_t, chunk_size=chunk
        )
        oracle = masked_matrix_oracle(homes, bs, ms_zone, bs_zone, f, r_t)
        assert vector.dtype == np.float64
        assert np.array_equal(vector, oracle)
        orphaned = ~np.isin(ms_zone, bs_zone)
        assert np.all(vector[orphaned] == 0.0)

    def test_chunk_size_must_be_positive(self, rng):
        homes, bs, ms_zone, bs_zone, f, r_t = make_inputs(rng, n=10, k=3)
        with pytest.raises(ValueError, match="chunk_size"):
            SchemeB.zone_access_vector(
                homes, bs, ms_zone, bs_zone, SHAPE, f, r_t, chunk_size=0
            )

    def test_chunking_invariant(self, rng):
        homes, bs, ms_zone, bs_zone, f, r_t = make_inputs(rng, n=100)
        whole = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, SHAPE, f, r_t, chunk_size=100
        )
        chunked = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, SHAPE, f, r_t, chunk_size=7
        )
        assert np.array_equal(whole, chunked)

    def test_default_chunks_split_zones_bit_identically(self, rng):
        """Wide enough that the element-budget rule cuts each zone into
        several chunks (65536 // 300 = 218 rows)."""
        homes, bs, ms_zone, bs_zone, f, r_t = make_inputs(rng, n=2000, k=300)
        vector = SchemeB.zone_access_vector(homes, bs, ms_zone, bs_zone, SHAPE, f, r_t)
        assert np.array_equal(
            vector, masked_matrix_oracle(homes, bs, ms_zone, bs_zone, f, r_t)
        )


class TestFromAccessVector:
    def test_equivalent_to_matrix_constructor(self, rng):
        homes, bs, ms_zone, bs_zone, f, r_t = make_inputs(rng)
        matrix = SchemeB.access_matrix(homes, bs, SHAPE, f, r_t)
        backbone_a = Backbone(16, 1.0)
        backbone_b = Backbone(16, 1.0)
        via_matrix = SchemeB(ms_zone, bs_zone, matrix, backbone_a)
        vector = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, SHAPE, f, r_t
        )
        via_vector = SchemeB.from_access_vector(ms_zone, bs_zone, vector, backbone_b)
        traffic = permutation_traffic(rng, 80)
        rate_matrix = via_matrix.sustainable_rate(traffic)
        rate_vector = via_vector.sustainable_rate(traffic)
        assert rate_matrix.per_node_rate == rate_vector.per_node_rate
        assert np.array_equal(
            via_matrix.ms_access_capacity(), via_vector.ms_access_capacity()
        )

    def test_length_validation(self, rng):
        with pytest.raises(ValueError):
            SchemeB.from_access_vector(
                np.zeros(5, int), np.zeros(3, int), np.ones(4), Backbone(3, 1.0)
            )
        with pytest.raises(ValueError):
            SchemeB.from_access_vector(
                np.zeros(5, int), np.zeros(3, int), np.ones(5), Backbone(4, 1.0)
            )

    def test_generic_rate_in_details(self, rng):
        homes, bs, ms_zone, bs_zone, f, r_t = make_inputs(rng, f=2.0, r_t=0.08)
        vector = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, SHAPE, f, r_t
        )
        scheme = SchemeB.from_access_vector(ms_zone, bs_zone, vector, Backbone(16, 1.0))
        result = scheme.sustainable_rate(permutation_traffic(rng, 80))
        assert "generic_rate" in result.details
        assert result.details["generic_rate"] >= result.per_node_rate or \
            result.details["generic_rate"] >= 0
        assert result.details["median_access_rate"] >= result.details["access_rate"]
