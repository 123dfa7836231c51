"""Bit-identity and tolerance tests for the dtype-aware geometry kernels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.backend import get_backend
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

    @settings(max_examples=25, deadline=None)
    @given(
        points=arrays(
            np.float64,
            (3, 8, 2),
            elements=st.floats(0.0, 1.0, exclude_max=True, width=64),
        )
    )
    def test_float32_within_declared_rtol(self, points):
        backend = get_backend("numpy32")
        exact = batched_pairwise_distances(points)
        approx = batched_pairwise_distances(points, dtype=backend.float_dtype)
        assert approx.dtype == np.float32
        # rtol gate is declared per kernel by the backend; torus distances
        # are bounded by sqrt(2)/2 so an absolute cushion of the same order
        # covers the catastrophic-cancellation-free regime
        rtol = backend.tolerance("torus_distance")
        assert np.allclose(approx, exact, rtol=rtol, atol=1e-6)


class TestMaskedNearestDtype:
    def test_float64_is_the_default(self, rng):
        points, others = rng.random((50, 2)), rng.random((9, 2))
        point_labels = rng.integers(0, 3, size=50)
        other_labels = rng.integers(0, 3, size=9)
        default = masked_nearest(points, others, point_labels, other_labels)
        explicit = masked_nearest(
            points, others, point_labels, other_labels, dtype=np.float64
        )
        assert np.array_equal(default[0], explicit[0])
        assert np.array_equal(default[1], explicit[1])

    def test_float32_distances_are_the_float32_kernel(self, rng):
        points, others = rng.random((40, 2)), rng.random((7, 2))
        nearest, distance = masked_nearest(points, others, dtype=np.float32)
        block = batched_pairwise_distances(points, others, dtype=np.float32)
        assert np.array_equal(nearest, block.argmin(axis=1))
        assert np.array_equal(
            distance, block[np.arange(40), nearest].astype(np.float64)
        )
        rtol = get_backend("numpy32").tolerance("torus_distance")
        exact = masked_nearest(points, others)[1]
        assert np.allclose(distance, exact, rtol=rtol, atol=1e-6)

    def test_orphan_labels_surface_as_minus_one(self, rng):
        points, others = rng.random((10, 2)), rng.random((4, 2))
        nearest, distance = masked_nearest(
            points, others, np.full(10, 7), np.zeros(4, dtype=int),
            dtype=np.float32,
        )  # no BS carries label 7
        assert np.all(nearest == -1)
        assert np.all(np.isinf(distance))

    def test_tiny_chunks_change_nothing(self, rng):
        points, others = rng.random((30, 2)), rng.random((5, 2))
        labels_p = rng.integers(0, 2, size=30)
        labels_o = rng.integers(0, 2, size=5)
        for dtype in (np.float64, np.float32):
            full = masked_nearest(points, others, labels_p, labels_o, dtype=dtype)
            tiny = masked_nearest(
                points, others, labels_p, labels_o, chunk_size=4, dtype=dtype
            )
            assert np.array_equal(full[0], tiny[0])
            assert np.array_equal(full[1], tiny[1])
