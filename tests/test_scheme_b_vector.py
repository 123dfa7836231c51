"""Unit tests for SchemeB's access vector ``mu_i^A`` and its constructor.

:func:`masked_matrix_oracle` is Definition 12 read literally: the full
``n x k`` Corollary-1 matrix, zone-masked and row-summed.  It is the one
oracle of the access vector that every test and the flow benchmark share.
:func:`padded_zone_oracle` is the zone loop :meth:`SchemeB.zone_access_vector`
ran before it windowed its blocks by ``y``-strip and ``x``: every in-zone
``(MS, BS)`` pair through the distance and contact kernels, scattered into
freshly allocated full-width zero rows.  The windowed kernel must reproduce
it bit for bit, because sweep digests hash the access rates.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.neighbors import chunk_rows
from repro.geometry.torus import batched_pairwise_distances, pairwise_distances
from repro.infrastructure.backbone import Backbone
from repro.mobility.shapes import (
    ConeShape,
    QuadraticDecayShape,
    TruncatedGaussianShape,
    UniformDiskShape,
)
from repro.routing.scheme_b import SchemeB
from repro.simulation.traffic import permutation_traffic
from repro.wireless.link_capacity import contact_probability_ms_bs_at_range

SHAPE = UniformDiskShape(1.0)
SHAPES = (
    UniformDiskShape(1.0),
    ConeShape(1.0),
    TruncatedGaussianShape(1.0, sigma=0.4),
    QuadraticDecayShape(0.7),
)
CHUNK_SIZES = (1, 7, None)


def padded_zone_oracle(
    ms_home, bs_positions, ms_zone, bs_zone, shape, f, r_t, chunk_size=None
):
    """``mu_i^A`` from every in-zone pair, one padded block at a time."""
    k = bs_zone.shape[0]
    chunk_size = chunk_rows(k, chunk_size)
    access = np.zeros(ms_home.shape[0])
    for zone in np.unique(bs_zone):
        rows = np.nonzero(ms_zone == zone)[0]
        cols = np.nonzero(bs_zone == zone)[0]
        stations = bs_positions[cols]
        for begin in range(0, rows.size, chunk_size):
            block = rows[begin : begin + chunk_size]
            distances = batched_pairwise_distances(ms_home[block], stations)
            padded = np.zeros((block.size, k))
            padded[:, cols] = contact_probability_ms_bs_at_range(
                shape, f, r_t, distances
            )
            access[block] = padded.sum(axis=1)
    return access


def assert_matches_oracle(homes, bs, ms_zone, bs_zone, shape, f, r_t, chunk_size):
    got = SchemeB.zone_access_vector(
        homes, bs, ms_zone, bs_zone, shape, f, r_t, chunk_size=chunk_size
    )
    want = padded_zone_oracle(
        homes, bs, ms_zone, bs_zone, shape, f, r_t, chunk_size=chunk_size
    )
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, want)
    return got


def make_inputs(rng, n=80, k=16, zones=2, f=3.0, r_t=0.05):
    homes = rng.random((n, 2))
    bs = rng.random((k, 2))
    ms_zone, bs_zone, _ = SchemeB.squarelet_zones(homes, bs, zones)
    return homes, bs, ms_zone, bs_zone, f, r_t


def masked_matrix_oracle(ms_home, bs_positions, ms_zone, bs_zone, shape, f, r_t):
    """Definition 12 literally: the full ``n x k`` matrix of Corollary-1
    MS-BS capacities at range ``r_t``, zone-masked and row-summed.

    Takes :meth:`SchemeB.zone_access_vector`'s arguments in its order."""
    matrix = contact_probability_ms_bs_at_range(
        shape, f, r_t, pairwise_distances(ms_home, bs_positions)
    )
    masked = np.where(ms_zone[:, None] == bs_zone[None, :], matrix, 0.0)
    return masked.sum(axis=1)


class TestZoneAccessVector:
    def test_matches_matrix_path(self, rng):
        homes, bs, ms_zone, bs_zone, f, r_t = make_inputs(rng)
        vector = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, SHAPE, f, r_t
        )
        assert np.array_equal(
            vector, masked_matrix_oracle(homes, bs, ms_zone, bs_zone, SHAPE, f, r_t)
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
        oracle = masked_matrix_oracle(homes, bs, ms_zone, bs_zone, SHAPE, f, r_t)
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
            vector, masked_matrix_oracle(homes, bs, ms_zone, bs_zone, SHAPE, f, r_t)
        )


class TestWindowedAgainstPaddedOracle:
    """The strip- and ``x``-windowed blocks equal the padded zone loop bit
    for bit."""

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: type(s).__name__)
    def test_shapes_multi_block_zones(self, shape, chunk_size):
        """Several zones, each cut into many blocks, at a reach ``D/f``
        far below the zone width."""
        rng = np.random.default_rng(4)
        homes, bs = rng.random((2500, 2)), rng.random((300, 2))
        ms_zone, bs_zone, _ = SchemeB.squarelet_zones(homes, bs, 2)
        vector = assert_matches_oracle(
            homes, bs, ms_zone, bs_zone, shape, 25.0, 0.01, chunk_size
        )
        assert np.count_nonzero(vector) > 0

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_pair_exactly_reach_apart_in_x(self, chunk_size):
        f = 8.0
        homes = np.array([[0.3, 0.5], [0.3 + 1.0 / f, 0.25], [0.6, 0.5]])
        bs = np.array([[0.3 + 1.0 / f, 0.5], [0.3 - 1.0 / f, 0.5], [0.9, 0.9]])
        zones = (np.zeros(3, dtype=int), np.zeros(3, dtype=int))
        vector = assert_matches_oracle(homes, bs, *zones, SHAPE, f, 0.01, chunk_size)
        assert vector[0] > 0.0

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: type(s).__name__)
    def test_pairs_straddling_the_seam(self, shape, chunk_size):
        """MSs just left of ``x = 1`` reach BSs just right of ``x = 0``, and
        the other way round; raw coordinates of ``1.0`` and of a hair below
        ``0`` (which ``np.mod`` maps to ``1.0``) sit on the seam."""
        rng = np.random.default_rng(5)
        homes = np.column_stack(
            [np.mod(rng.uniform(-0.03, 0.03, 60), 1.0), rng.random(60)]
        )
        homes[0] = [1.0, 0.5]
        homes[1] = [-1e-18, 0.5]
        bs = np.column_stack([np.mod(rng.uniform(-0.05, 0.05, 30), 1.0), rng.random(30)])
        bs[0] = [-1e-18, 0.5]
        zones = (np.zeros(60, dtype=int), np.zeros(30, dtype=int))
        vector = assert_matches_oracle(homes, bs, *zones, shape, 5.0, 0.01, chunk_size)
        assert np.count_nonzero(vector) > 0

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_reach_at_least_half_the_torus(self, chunk_size):
        rng = np.random.default_rng(6)
        homes, bs = rng.random((400, 2)), rng.random((50, 2))
        zones = (rng.integers(0, 3, 400), rng.integers(0, 3, 50))
        for f in (1.0, 2.0, 1.9):
            assert_matches_oracle(homes, bs, *zones, SHAPE, f, 0.05, chunk_size)

    def test_single_block_zones(self):
        rng = np.random.default_rng(7)
        homes, bs = rng.random((40, 2)), rng.random((20, 2))
        zones = (rng.integers(0, 4, 40), rng.integers(0, 4, 20))
        assert_matches_oracle(homes, bs, *zones, SHAPE, 20.0, 0.01, 40)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_zones_without_bss_and_bss_without_mss(self, chunk_size):
        rng = np.random.default_rng(8)
        homes, bs = rng.random((300, 2)), rng.random((40, 2))
        ms_zone = rng.integers(0, 4, 300)  # zone 3 holds MSs but no BS
        bs_zone = rng.choice([0, 1, 2, 5], size=40)  # zone 5 holds no MS
        bs_zone[:3] = [0, 1, 2]
        vector = assert_matches_oracle(
            homes, bs, ms_zone, bs_zone, SHAPE, 6.0, 0.02, chunk_size
        )
        assert np.all(vector[ms_zone == 3] == 0.0)

    def test_no_bss_at_all(self):
        homes = np.random.default_rng(9).random((10, 2))
        vector = SchemeB.zone_access_vector(
            homes, np.empty((0, 2)), np.zeros(10, dtype=int),
            np.empty(0, dtype=int), SHAPE, 4.0, 0.05,
        )
        np.testing.assert_array_equal(vector, np.zeros(10))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 150),
        k=st.integers(1, 40),
        zones=st.integers(1, 4),
        shape=st.sampled_from(SHAPES),
        f=st.floats(1.0, 60.0),
        chunk_size=st.sampled_from(CHUNK_SIZES + (2, 64)),
        seam=st.booleans(),
    )
    def test_property_bit_identical_to_padded_oracle(
        self, seed, n, k, zones, shape, f, chunk_size, seam
    ):
        rng = np.random.default_rng(seed)
        homes, bs = rng.random((n, 2)), rng.random((k, 2))
        if seam:
            # crowd both sides around x = 0 = 1
            homes[:, 0] = np.mod(homes[:, 0] * 0.1 - 0.05, 1.0)
            bs[:, 0] = np.mod(bs[:, 0] * 0.1 - 0.05, 1.0)
        ms_zone = rng.integers(0, zones + 1, size=n)
        bs_zone = rng.integers(0, zones, size=k)
        assert_matches_oracle(homes, bs, ms_zone, bs_zone, shape, f, 0.02, chunk_size)


def strip_height(shape, f):
    """The height of the kernel's global ``y``-strips at reach ``D/f``."""
    reach = shape.support_radius / f * (1.0 + 1e-9)
    return 1.0 / max(1, math.floor(1.0 / reach))


def assert_matches_masked_matrix(homes, bs, ms_zone, bs_zone, shape, f, r_t=0.02):
    """Bit-equal to the oracle at every chunk size: 1 and 7 make a zone
    fill a block per strip, so it is split into strips; the default keeps
    these small zones whole."""
    want = masked_matrix_oracle(homes, bs, ms_zone, bs_zone, shape, f, r_t)
    for chunk_size in CHUNK_SIZES:
        got = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, shape, f, r_t, chunk_size=chunk_size
        )
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    return want


class TestStripWindows:
    """Each zone's MSs meet only the zone BSs near their global ``y``-strip;
    the edges of that window must not lose a pair the density reaches."""

    @pytest.mark.parametrize("f", [2.5, 3.7, 8.0, 11.3, 25.0])
    def test_bss_reach_away_from_mss_on_strip_edges(self, f):
        """An MS on every strip edge, and BSs straight above and below it at
        exactly ``D/f``: the density's support ends there, so such a pair
        counts unless its distance rounds up, and it lies exactly on its
        strip window's edge."""
        height = strip_height(SHAPE, f)
        edges = np.arange(0.0, 1.0, height)
        x = np.linspace(0.05, 0.95, edges.size)
        homes = np.column_stack([x, edges])
        bs = np.concatenate([
            np.column_stack([x, np.mod(edges + sign * SHAPE.support_radius / f, 1.0)])
            for sign in (1.0, -1.0)
        ])
        zones = (np.zeros(len(homes), dtype=int), np.zeros(len(bs), dtype=int))
        vector = assert_matches_masked_matrix(homes, bs, *zones, SHAPE, f)
        assert np.count_nonzero(vector) > 0

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: type(s).__name__)
    def test_mss_on_strip_boundaries(self, shape):
        """MSs exactly on, and a hair either side of, every strip boundary,
        among random BSs of two zones."""
        rng = np.random.default_rng(12)
        f = 9.0
        edges = np.arange(0.0, 1.0, strip_height(shape, f))
        ys = np.concatenate([edges, edges + 1e-12, edges - 1e-12, [1.0, -1e-18]])
        homes = np.column_stack([rng.random(ys.size), ys])
        bs = rng.random((300, 2))
        ms_zone, bs_zone, _ = SchemeB.squarelet_zones(np.mod(homes, 1.0), bs, 2)
        vector = assert_matches_masked_matrix(homes, bs, ms_zone, bs_zone, shape, f)
        assert np.count_nonzero(vector) > ys.size // 2

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: type(s).__name__)
    def test_weak_clusters_on_the_y_seam(self, shape):
        """Clusters (the weak regime's zones) centred on ``y = 0``: MSs just
        above the seam reach BSs just below it, and the other way round."""
        rng = np.random.default_rng(13)
        centres = np.array([[0.2, 0.0], [0.7, 0.0], [0.45, 0.5]])
        ms_zone = rng.integers(0, 3, 600)
        bs_zone = rng.integers(0, 3, 120)
        homes = np.mod(centres[ms_zone] + rng.uniform(-0.08, 0.08, (600, 2)), 1.0)
        bs = np.mod(centres[bs_zone] + rng.uniform(-0.08, 0.08, (120, 2)), 1.0)
        vector = assert_matches_masked_matrix(homes, bs, ms_zone, bs_zone, shape, 30.0)
        below = (ms_zone < 2) & (homes[:, 1] > 0.5)
        assert np.count_nonzero(vector[below]) > 0

    @pytest.mark.parametrize("f", [1.0, 1.5, 2.0, 2.0 * (1 + 1e-8), 2.1])
    def test_reach_near_and_above_half(self, f):
        """Reach ``>= 1/2`` leaves a single strip; just below ``1/2``, two
        strips whose windows each cover the whole torus."""
        rng = np.random.default_rng(14)
        assert (strip_height(SHAPE, f) == 1.0) == (f <= 2.0)
        homes, bs = rng.random((200, 2)), rng.random((40, 2))
        zones = (rng.integers(0, 3, 200), rng.integers(0, 3, 40))
        assert_matches_masked_matrix(homes, bs, *zones, SHAPE, f)

    def test_strip_without_a_bs_of_its_zone(self):
        """One zone whose BSs all sit in a thin band: the MSs of strips far
        from it meet no BS and get exactly 0.0."""
        rng = np.random.default_rng(15)
        f = 20.0
        homes = rng.random((400, 2))
        bs = np.column_stack([rng.random(30), 0.3 + 0.02 * rng.random(30)])
        zones = (np.zeros(400, dtype=int), np.zeros(30, dtype=int))
        vector = assert_matches_masked_matrix(homes, bs, *zones, SHAPE, f)
        # no band BS lies within half a strip plus reach of such an MS's
        # strip centre
        dy = np.abs(homes[:, 1] - 0.31)
        far = np.minimum(dy, 1.0 - dy) > 0.01 + strip_height(SHAPE, f) + 1.0 / f
        assert far.any() and np.all(vector[far] == 0.0)
        assert np.count_nonzero(vector) > 0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 120),
        k=st.integers(1, 40),
        zones=st.integers(1, 4),
        shape=st.sampled_from(SHAPES),
        f=st.floats(1.0, 60.0),
    )
    def test_property_y_seam(self, seed, n, k, zones, shape, f):
        """MSs and BSs crowded around ``y = 0 = 1`` at any reach."""
        rng = np.random.default_rng(seed)
        homes, bs = rng.random((n, 2)), rng.random((k, 2))
        homes[:, 1] = np.mod(homes[:, 1] * 0.1 - 0.05, 1.0)
        bs[:, 1] = np.mod(bs[:, 1] * 0.1 - 0.05, 1.0)
        ms_zone = rng.integers(0, zones + 1, size=n)
        bs_zone = rng.integers(0, zones, size=k)
        assert_matches_masked_matrix(homes, bs, ms_zone, bs_zone, shape, f)


class TestAccessVectorConstructor:
    def test_length_validation(self, rng):
        with pytest.raises(ValueError):
            SchemeB(
                np.zeros(5, int), np.zeros(3, int), np.ones(4), Backbone(3, 1.0)
            )
        with pytest.raises(ValueError):
            SchemeB(
                np.zeros(5, int), np.zeros(3, int), np.ones(5), Backbone(4, 1.0)
            )

    def test_generic_rate_in_details(self, rng):
        homes, bs, ms_zone, bs_zone, f, r_t = make_inputs(rng, f=2.0, r_t=0.08)
        vector = SchemeB.zone_access_vector(
            homes, bs, ms_zone, bs_zone, SHAPE, f, r_t
        )
        scheme = SchemeB(ms_zone, bs_zone, vector, Backbone(16, 1.0))
        result = scheme.sustainable_rate(permutation_traffic(rng, 80))
        assert "generic_rate" in result.details
        assert result.details["generic_rate"] >= result.per_node_rate or \
            result.details["generic_rate"] >= 0
        assert result.details["median_access_rate"] >= result.details["access_rate"]
