"""Bit-identity tests for the batched and chunked geometry kernels."""

import numpy as np

from repro.geometry.neighbors import masked_nearest
from repro.geometry.torus import batched_pairwise_distances, pairwise_distances


def stack_points(rng, batch, n, k=None):
    points = rng.random((batch, n, 2))
    others = None if k is None else rng.random((batch, k, 2))
    return points, others


class TestBatchedPairwiseDistances:
    def test_slices_bit_identical_to_serial(self, rng):
        points, others = stack_points(rng, 5, 40, 17)
        out = batched_pairwise_distances(points, others)
        assert out.shape == (5, 40, 17)
        for b in range(5):
            assert np.array_equal(out[b], pairwise_distances(points[b], others[b]))

    def test_self_distances_match_serial(self, rng):
        points, _ = stack_points(rng, 3, 25)
        out = batched_pairwise_distances(points)
        for b in range(3):
            assert np.array_equal(out[b], pairwise_distances(points[b]))

    def test_width_one_batch(self, rng):
        points, _ = stack_points(rng, 1, 10)
        out = batched_pairwise_distances(points)
        assert np.array_equal(out[0], pairwise_distances(points[0]))


class TestMaskedNearest:
    def test_distances_are_the_pairwise_kernel(self, rng):
        points, others = rng.random((40, 2)), rng.random((7, 2))
        nearest, distance = masked_nearest(points, others)
        block = batched_pairwise_distances(points, others)
        assert np.array_equal(nearest, block.argmin(axis=1))
        assert distance.dtype == np.float64
        assert np.array_equal(distance, block[np.arange(40), nearest])

    def test_orphan_labels_surface_as_minus_one(self, rng):
        points, others = rng.random((10, 2)), rng.random((4, 2))
        nearest, distance = masked_nearest(
            points, others, np.full(10, 7), np.zeros(4, dtype=int)
        )  # no BS carries label 7
        assert np.all(nearest == -1)
        assert np.all(np.isinf(distance))

    def test_tiny_chunks_change_nothing(self, rng):
        points, others = rng.random((30, 2)), rng.random((5, 2))
        labels_p = rng.integers(0, 2, size=30)
        labels_o = rng.integers(0, 2, size=5)
        full = masked_nearest(points, others, labels_p, labels_o)
        tiny = masked_nearest(points, others, labels_p, labels_o, chunk_size=4)
        assert np.array_equal(full[0], tiny[0])
        assert np.array_equal(full[1], tiny[1])
