"""Tests for the torus cell-grid neighbor index (``geometry/neighbors``).

The index replaces dense ``O(n^2)`` distance matrices on the per-slot
scheduling hot path, and every consumer relies on its bit-identity
contract: ``pairs_within`` / ``neighbors_of`` must return exactly the
pairs a dense :func:`~repro.geometry.torus.pairwise_distances` threshold
would, with the same float distances, in the same (lexicographic) order.
Hypothesis drives randomized point sets including wrap-around clusters
straddling the torus seam and radii past the ``> 1/3`` dense-fallback
threshold.

:func:`full_width_masked_nearest` is the :func:`masked_nearest` loop from
before it paired each label's points with that label's candidates only:
every point against every candidate, other labels masked to ``inf``.  The
per-label search must reproduce it bit for bit -- indices and distances --
because scheme C's attach feeds its cell range and sweep digests.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.neighbors import (
    _HALF_STENCIL,
    _SMALL_N,
    CHUNK_ELEMENTS,
    CellGridIndex,
    adjacency_lists,
    chunk_rows,
    masked_nearest,
    _stencil_table,
    pair_distances,
)
from repro.geometry.torus import batched_pairwise_distances, pairwise_distances

coordinate = st.floats(
    min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False
)
point = st.tuples(coordinate, coordinate)
#: Point sets large enough to exercise the grid path (> _SMALL_N) are mixed
#: with small sets that take the dense fallback.
points = st.lists(point, min_size=1, max_size=90).map(
    lambda rows: np.array(rows, dtype=float)
)
#: Radii spanning the grid regime, the sqrt(n) resolution cap, and the
#: dense fallback past 1/3 (fewer than three cells per side).
radius = st.floats(min_value=1e-3, max_value=0.8, allow_nan=False)

#: Seam offsets in [-0.03, 0.03) around a torus edge: clusters whose
#: members straddle the wrap-around discontinuity.
seam_offset = st.floats(min_value=-0.03, max_value=0.03, allow_nan=False)
seam_points = st.lists(
    st.tuples(seam_offset, coordinate), min_size=2, max_size=80
).map(lambda rows: np.mod(np.array(rows, dtype=float), 1.0))


def full_width_masked_nearest(
    points, others, point_labels=None, other_labels=None, chunk_size=None
):
    """Nearest same-label candidate from full-width label-masked blocks."""
    count = points.shape[0]
    nearest = np.full(count, -1, dtype=int)
    distance = np.full(count, np.inf)
    if count == 0 or others.shape[0] == 0:
        return nearest, distance
    chunk_size = chunk_rows(others.shape[0], chunk_size)
    for begin in range(0, count, chunk_size):
        rows = slice(begin, min(begin + chunk_size, count))
        block = batched_pairwise_distances(points[rows], others)
        if point_labels is not None:
            mask = point_labels[rows, None] == other_labels[None, :]
            block = np.where(mask, block, np.inf)
        best = block.argmin(axis=1)
        best_distance = block[np.arange(block.shape[0]), best]
        found = np.isfinite(best_distance)
        nearest[rows][found] = best[found]
        distance[rows][found] = best_distance[found]
    return nearest, distance


def _assert_nearest_matches_oracle(pts, others, labels_p, labels_o, chunk_size):
    got = masked_nearest(pts, others, labels_p, labels_o, chunk_size=chunk_size)
    want = full_width_masked_nearest(
        pts, others, labels_p, labels_o, chunk_size=chunk_size
    )
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    return got


def _dense_pairs(pts, r):
    distances = pairwise_distances(pts)
    i, j = np.nonzero(np.triu(distances <= r, k=1))
    return i, j, distances[i, j]


def _assert_pairs_match(pts, r):
    i, j, d = CellGridIndex(pts).pairs_within(r)
    ei, ej, ed = _dense_pairs(pts, r)
    np.testing.assert_array_equal(i, ei)
    np.testing.assert_array_equal(j, ej)
    np.testing.assert_array_equal(d, ed)  # bit-identical floats


class TestPairsWithinMatchesDense:
    @settings(max_examples=150, deadline=None)
    @given(pts=points, r=radius)
    def test_random_points(self, pts, r):
        _assert_pairs_match(pts, r)

    @settings(max_examples=100, deadline=None)
    @given(pts=seam_points, r=radius)
    def test_wraparound_cluster_straddling_seam(self, pts, r):
        """Dense clusters split across x ~ 0 / x ~ 1 must pair up through
        the wrap-around stencil exactly as through ``np.round`` wrapping."""
        _assert_pairs_match(pts, r)

    @settings(max_examples=60, deadline=None)
    @given(pts=points, r=st.floats(min_value=0.34, max_value=1.5))
    def test_radius_beyond_third_uses_dense_fallback(self, pts, r):
        """Past cell side 1/3 the stencil would self-overlap; the index
        falls back to the dense matrix with identical results."""
        assert CellGridIndex(pts).resolution(r) < 3 or pts.shape[0] <= _SMALL_N
        _assert_pairs_match(pts, r)

    def test_grid_path_on_large_uniform_set(self):
        rng = np.random.default_rng(7)
        pts = rng.random((600, 2))
        for r in (0.01, 0.04, 0.11, 0.25):
            _assert_pairs_match(pts, r)

    def test_colocated_points(self):
        pts = np.full((40, 2), 0.5)
        i, j, d = CellGridIndex(pts).pairs_within(0.05)
        assert i.size == 40 * 39 // 2
        np.testing.assert_array_equal(d, 0.0)

    def test_single_point_and_empty(self):
        i, j, d = CellGridIndex(np.array([[0.2, 0.8]])).pairs_within(0.3)
        assert i.size == j.size == d.size == 0

    def test_out_of_domain_coordinates_keep_raw_distances(self):
        """Unwrapped inputs: cells come from wrapped copies but distances
        are evaluated on the raw coordinates, exactly like the dense
        kernel."""
        rng = np.random.default_rng(3)
        pts = rng.random((120, 2)) * 4.0 - 2.0
        _assert_pairs_match(pts, 0.08)


class TestNeighborsOfMatchesDense:
    @settings(max_examples=100, deadline=None)
    @given(pts=points, queries=points, r=radius)
    def test_cross_set(self, pts, queries, r):
        qi, pj, d = CellGridIndex(pts).neighbors_of(queries, r)
        dense = pairwise_distances(queries, pts)
        ei, ej = np.nonzero(dense <= r)
        np.testing.assert_array_equal(qi, ei)
        np.testing.assert_array_equal(pj, ej)
        np.testing.assert_array_equal(d, dense[ei, ej])

    def test_ms_bs_association_shape(self):
        """The MS -> BS pattern: many queries against few indexed points."""
        rng = np.random.default_rng(11)
        ms, bs = rng.random((500, 2)), rng.random((9, 2))
        qi, pj, d = CellGridIndex(bs).neighbors_of(ms, 0.2)
        dense = pairwise_distances(ms, bs)
        ei, ej = np.nonzero(dense <= 0.2)
        np.testing.assert_array_equal(qi, ei)
        np.testing.assert_array_equal(pj, ej)
        np.testing.assert_array_equal(d, dense[ei, ej])

    def test_empty_sides(self):
        index = CellGridIndex(np.empty((0, 2)))
        qi, pj, d = index.neighbors_of(np.array([[0.5, 0.5]]), 0.1)
        assert qi.size == pj.size == d.size == 0
        index = CellGridIndex(np.array([[0.5, 0.5]]))
        qi, pj, d = index.neighbors_of(np.empty((0, 2)), 0.1)
        assert qi.size == pj.size == d.size == 0


def _assert_neighbors_match(pts, queries, r):
    qi, pj, d = CellGridIndex(pts).neighbors_of(queries, r)
    dense = pairwise_distances(queries, pts)
    ei, ej = np.nonzero(dense <= r)
    np.testing.assert_array_equal(qi, ei)
    np.testing.assert_array_equal(pj, ej)
    np.testing.assert_array_equal(d, dense[ei, ej])


class TestSinglePassEdgeCases:
    """The one-pass stencil expansion against the dense ``np.triu`` path
    where the per-cell bookkeeping is most fragile."""

    def test_three_cells_per_side(self):
        """``m == 3``: the wrap-around stencil covers the whole grid, and
        the left and right neighbours of a cell are the same two cells."""
        rng = np.random.default_rng(21)
        pts = rng.random((150, 2))
        for r in (0.26, 0.3, 1 / 3):
            assert CellGridIndex(pts).resolution(r) == 3
            _assert_pairs_match(pts, r)
            _assert_neighbors_match(pts, rng.random((40, 2)), r)

    def test_duplicate_points(self):
        rng = np.random.default_rng(22)
        base = rng.random((30, 2))
        pts = np.concatenate([base, base, base[:5]])
        for r in (1e-3, 0.02, 0.1):
            _assert_pairs_match(pts, r)
            _assert_neighbors_match(pts, base, r)
        i, j, d = CellGridIndex(pts).pairs_within(1e-3)
        assert np.all(d[np.isin(i, np.arange(30)) & (j == i + 30)] == 0.0)

    def test_every_point_in_one_cell(self):
        rng = np.random.default_rng(23)
        pts = 0.42 + rng.random((60, 2)) * 1e-3
        index = CellGridIndex(pts)
        m = index.resolution(0.01)
        _, _, count, _ = index._grid(m)
        assert np.count_nonzero(count) == 1
        _assert_pairs_match(pts, 0.01)
        _assert_pairs_match(pts, 1e-4)
        _assert_neighbors_match(pts, rng.random((30, 2)), 0.01)

    def test_mostly_empty_cells(self):
        """Two tight clusters on either side of the seam, every other cell
        empty."""
        rng = np.random.default_rng(24)
        pts = np.mod(
            np.concatenate(
                [rng.random((40, 2)) * 0.02, 0.999 + rng.random((40, 2)) * 0.02]
            ),
            1.0,
        )
        for r in (0.005, 0.02, 0.05):
            _assert_pairs_match(pts, r)
            _assert_neighbors_match(pts, rng.random((50, 2)), r)

    def test_just_past_the_dense_threshold(self):
        rng = np.random.default_rng(25)
        pts = rng.random((_SMALL_N + 1, 2))
        for r in (0.05, 0.2, 0.3):
            assert CellGridIndex(pts).resolution(r) >= 3
            _assert_pairs_match(pts, r)
            _assert_neighbors_match(pts, rng.random((_SMALL_N + 1, 2)), r)

    def test_stencil_table_cached_per_resolution(self):
        """Indexes over different snapshots at one resolution share one
        read-only stencil table."""
        rng = np.random.default_rng(26)
        first = rng.random((400, 2))
        second = rng.random((400, 2))
        CellGridIndex(first).pairs_within(0.05)
        m = CellGridIndex(first).resolution(0.05)
        table = _stencil_table(m, _HALF_STENCIL)
        hits = _stencil_table.cache_info().hits
        CellGridIndex(second).pairs_within(0.05)
        CellGridIndex(first).pairs_within(0.05)
        assert _stencil_table.cache_info().hits == hits + 2
        assert _stencil_table(m, _HALF_STENCIL) is table
        assert not table.flags.writeable


class TestIndexMechanics:
    def test_resolution_cell_side_at_least_radius(self):
        # the largest m with cell side 1/m >= radius, capped at
        # 2 isqrt(n) + 1 = 63 (binding at the three smallest radii) and
        # floored at 1 once the radius exceeds the whole torus
        index = CellGridIndex(np.random.default_rng(0).random((1000, 2)))
        cap = 2 * math.isqrt(1000) + 1
        expected = {
            1e-6: cap, 1e-3: cap, 0.01: cap, 0.0625: 16, 0.1: 10, 1 / 3: 3, 0.5: 2, 2.0: 1,
        }
        for r, m in expected.items():
            assert index.resolution(r) == m
            assert m * r <= 1.0 or m == 1
            assert (m + 1) * r > 1.0 or m == cap

    def test_resolution_capped_near_sqrt_n(self):
        # cap 2 isqrt(n) + 1: O(n) cells, about 4n at most
        index = CellGridIndex(np.random.default_rng(1).random((100, 2)))
        assert index.resolution(1e-9) <= 21

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            CellGridIndex(np.zeros((3, 3)))
        index = CellGridIndex(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            index.pairs_within(0.0)
        with pytest.raises(ValueError):
            index.resolution(-1.0)

    def test_grid_cached_per_resolution(self):
        index = CellGridIndex(np.random.default_rng(2).random((200, 2)))
        index.pairs_within(0.05)
        index.neighbors_of(np.array([[0.1, 0.1]]), 0.05)
        assert len(index._grids) == 1  # same m reused across query kinds

    def test_pair_distances_bit_identical_to_dense(self):
        rng = np.random.default_rng(5)
        pts = rng.random((50, 2))
        i = rng.integers(0, 50, 200)
        j = rng.integers(0, 50, 200)
        dense = pairwise_distances(pts)
        np.testing.assert_array_equal(pair_distances(pts, i, j), dense[i, j])


class TestSharedChunkHelpers:
    def test_masked_nearest_ragged_last_chunk(self):
        """101 rows in chunks of 17 (a short last chunk) match one chunk."""
        rng = np.random.default_rng(8)
        pts, others = rng.random((101, 2)), rng.random((13, 2))
        chunked = masked_nearest(pts, others, chunk_size=17)
        whole = masked_nearest(pts, others, chunk_size=101)
        np.testing.assert_array_equal(chunked[0], whole[0])
        np.testing.assert_array_equal(chunked[1], whole[1])

    def test_masked_nearest_validates_chunk_size(self):
        with pytest.raises(ValueError):
            masked_nearest(np.zeros((2, 2)), np.zeros((2, 2)), chunk_size=0)

    def test_chunk_rows_holds_the_element_budget(self):
        assert chunk_rows(0) == chunk_rows(1) == CHUNK_ELEMENTS
        assert chunk_rows(1000) == CHUNK_ELEMENTS // 1000
        assert chunk_rows(10 * CHUNK_ELEMENTS) == 1

    def test_chunk_rows_explicit_size_wins(self):
        assert chunk_rows(1000, chunk_size=3) == 3
        assert chunk_rows(1, chunk_size=CHUNK_ELEMENTS + 1) == CHUNK_ELEMENTS + 1
        with pytest.raises(ValueError, match="chunk_size"):
            chunk_rows(10, chunk_size=0)

    def test_masked_nearest_default_chunks_match_one_block(self):
        """1000 candidates: the default rule takes 65 rows per block."""
        rng = np.random.default_rng(9)
        pts, others = rng.random((300, 2)), rng.random((1000, 2))
        labels_p, labels_o = rng.integers(0, 4, 300), rng.integers(0, 4, 1000)
        chunked = masked_nearest(pts, others, labels_p, labels_o)
        whole = masked_nearest(pts, others, labels_p, labels_o, chunk_size=300)
        np.testing.assert_array_equal(chunked[0], whole[0])
        np.testing.assert_array_equal(chunked[1], whole[1])

    @settings(max_examples=60, deadline=None)
    @given(pts=points, others=points, data=st.data())
    def test_masked_nearest_matches_bruteforce(self, pts, others, data):
        labels_p = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, 3),
                    min_size=pts.shape[0],
                    max_size=pts.shape[0],
                )
            )
        )
        labels_o = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, 3),
                    min_size=others.shape[0],
                    max_size=others.shape[0],
                )
            )
        )
        nearest, distance = masked_nearest(
            pts, others, labels_p, labels_o, chunk_size=7
        )
        dense = pairwise_distances(pts, others)
        masked = np.where(labels_p[:, None] == labels_o[None, :], dense, np.inf)
        best = masked.argmin(axis=1)
        best_distance = masked[np.arange(pts.shape[0]), best]
        found = np.isfinite(best_distance)
        np.testing.assert_array_equal(nearest, np.where(found, best, -1))
        np.testing.assert_array_equal(distance[found], best_distance[found])
        assert np.all(np.isinf(distance[~found]))

    def test_masked_nearest_unlabeled(self):
        rng = np.random.default_rng(9)
        pts, others = rng.random((30, 2)), rng.random((5, 2))
        nearest, distance = masked_nearest(pts, others)
        dense = pairwise_distances(pts, others)
        np.testing.assert_array_equal(nearest, dense.argmin(axis=1))
        np.testing.assert_array_equal(
            distance, dense[np.arange(30), dense.argmin(axis=1)]
        )

    def test_masked_nearest_rejects_one_sided_labels(self):
        with pytest.raises(ValueError):
            masked_nearest(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), None)

    def test_adjacency_lists_symmetric(self):
        indptr, indices = adjacency_lists(
            5, np.array([0, 0, 2]), np.array([1, 3, 4])
        )
        neighbors = {
            node: sorted(indices[indptr[node] : indptr[node + 1]].tolist())
            for node in range(5)
        }
        assert neighbors == {0: [1, 3], 1: [0], 2: [4], 3: [0], 4: [2]}


class TestPerLabelNearestAgainstFullWidthOracle:
    """Per-label blocks equal the full-width masked search bit for bit."""

    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    def test_clustered_layout(self, chunk_size):
        rng = np.random.default_rng(11)
        pts, others = rng.random((900, 2)), rng.random((120, 2))
        labels_p, labels_o = rng.integers(0, 6, 900), rng.integers(0, 6, 120)
        _assert_nearest_matches_oracle(pts, others, labels_p, labels_o, chunk_size)

    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    def test_cluster_without_candidates_is_orphaned(self, chunk_size):
        rng = np.random.default_rng(12)
        pts, others = rng.random((50, 2)), rng.random((10, 2))
        labels_p = rng.integers(0, 3, 50)
        labels_o = rng.integers(0, 2, 10)  # label 2 has no candidate
        labels_o[:2] = [0, 1]
        nearest, distance = _assert_nearest_matches_oracle(
            pts, others, labels_p, labels_o, chunk_size
        )
        orphans = labels_p == 2
        assert np.all(nearest[orphans] == -1)
        assert np.all(np.isinf(distance[orphans]))
        assert np.all(nearest[~orphans] >= 0)

    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    def test_equidistant_and_duplicate_candidates_take_the_lowest_index(
        self, chunk_size
    ):
        pts = np.array([[0.5, 0.5], [0.1, 0.1], [0.9, 0.5]])
        others = np.array(
            [
                [0.6, 0.5],  # label 1: not a candidate for label-0 points
                [0.5, 0.6],
                [0.4, 0.5],  # equidistant with 1 and 3 from pts[0]
                [0.5, 0.4],
                [0.1, 0.1],
                [0.1, 0.1],  # duplicate of 4
            ]
        )
        labels_p = np.zeros(3, dtype=int)
        labels_o = np.array([1, 0, 0, 0, 0, 0])
        nearest, distance = _assert_nearest_matches_oracle(
            pts, others, labels_p, labels_o, chunk_size
        )
        assert nearest[0] == 1 and nearest[1] == 4

    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    def test_labels_present_on_one_side_only(self, chunk_size):
        rng = np.random.default_rng(13)
        pts, others = rng.random((40, 2)), rng.random((15, 2))
        labels_p = rng.choice([0, 1, 7], size=40)  # 7: points only
        labels_o = rng.choice([0, 1, 9], size=15)  # 9: candidates only
        _assert_nearest_matches_oracle(pts, others, labels_p, labels_o, chunk_size)

    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    def test_unlabeled(self, chunk_size):
        rng = np.random.default_rng(14)
        pts, others = rng.random((70, 2)), rng.random((9, 2))
        _assert_nearest_matches_oracle(pts, others, None, None, chunk_size)

    @settings(max_examples=80, deadline=None)
    @given(
        pts=points,
        others=points,
        chunk_size=st.sampled_from([1, 7, None]),
        data=st.data(),
    )
    def test_property_bit_identical(self, pts, others, chunk_size, data):
        labels_p = np.asarray(
            data.draw(st.lists(st.integers(0, 4), min_size=len(pts), max_size=len(pts)))
        )
        labels_o = np.asarray(
            data.draw(
                st.lists(st.integers(0, 4), min_size=len(others), max_size=len(others))
            )
        )
        _assert_nearest_matches_oracle(pts, others, labels_p, labels_o, chunk_size)
