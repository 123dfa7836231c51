"""Unit tests for torus geometry."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.geometry.torus import (
    disk_sample,
    mod1,
    pairwise_distances,
    random_points,
    torus_delta,
    torus_distance,
    within_range,
    wrap,
)

points = hnp.arrays(
    float,
    st.tuples(st.integers(1, 8), st.just(2)),
    elements=st.floats(-5, 5, allow_nan=False, width=32),
)


class TestWrap:
    def test_identity_inside(self):
        p = np.array([0.3, 0.7])
        assert np.allclose(wrap(p), p)

    def test_wraps_above_and_below(self):
        assert np.allclose(wrap(np.array([1.25, -0.25])), [0.25, 0.75])

    @given(points)
    def test_always_in_unit_square(self, p):
        wrapped = wrap(p)
        assert np.all(wrapped >= 0) and np.all(wrapped < 1)


def _mod_oracle(x):
    return np.mod(x, 1.0)


def _wrap_oracle(x):
    wrapped = np.mod(x, 1.0)
    return np.where(wrapped >= 1.0, 0.0, wrapped)


def _assert_bit_equal(got, want):
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


def _edge_values():
    tiny = np.finfo(float).smallest_subnormal
    near = [np.nextafter(v, toward) for v in (0.0, 1.0, -1.0) for toward in (-2.0, 2.0)]
    return np.array(
        [0.0, -0.0, 1.0, -1.0, *near, 2.0**52, -(2.0**52), 2.0**53 + 2, -(2.0**53 + 2),
         2.0**52 + 0.5, -(2.0**52 + 0.5), np.inf, -np.inf, np.nan,
         tiny, -tiny, 1e3 * tiny, -1e3 * tiny, np.finfo(float).tiny, -np.finfo(float).tiny,
         np.finfo(float).max, -np.finfo(float).max]
    )


class TestModOneMatchesNpMod:
    """``mod1`` is ``np.mod(x, 1.0)`` and ``wrap`` its folded form, bit for
    bit: on random coordinates, on a band of tiny values around 0 (where
    ``np.mod`` gives exactly 1.0 and only ``wrap`` folds), at large scales,
    at every edge value, and for scalars, 0-d arrays and lists alike.  A
    numpy change to ``np.mod`` fails here first."""

    CASES = {
        "random": np.random.default_rng(4).uniform(-2.0, 3.0, (50_000, 2)),
        "tiny-band": np.random.default_rng(5).uniform(-1e-15, 1e-15, 20_000),
        "large": np.random.default_rng(6).uniform(-1e6, 1e6, 20_000),
        "edges": _edge_values(),
    }

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_arrays(self, case):
        x = self.CASES[case]
        _assert_bit_equal(mod1(x), _mod_oracle(x))
        _assert_bit_equal(wrap(x), _wrap_oracle(x))

    def test_tiny_negatives_reach_one_and_only_wrap_folds(self):
        x = np.array([-1e-17, -np.finfo(float).smallest_subnormal])
        assert np.all(mod1(x) == 1.0)
        assert np.all(wrap(x) == 0.0) and not np.signbit(wrap(x)).any()

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_scalar_0d_list_and_integer_inputs(self):
        for x in (1.25, -0.25, np.float64(-1e-17), np.array(-3.5), [1.25, -0.25],
                  [[0.5, -2.0]], np.array([3, -4]), -7, True):
            _assert_bit_equal(mod1(x), _mod_oracle(x))
            _assert_bit_equal(wrap(x), _wrap_oracle(x))


class TestDistance:
    def test_simple(self):
        d = torus_distance(np.array([0.1, 0.1]), np.array([0.4, 0.5]))
        assert d == pytest.approx(0.5)

    def test_wraparound_shorter(self):
        d = torus_distance(np.array([0.05, 0.5]), np.array([0.95, 0.5]))
        assert d == pytest.approx(0.1)

    def test_max_distance_is_half_diagonal(self):
        d = torus_distance(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        assert d == pytest.approx(np.sqrt(0.5))

    def test_broadcasting(self):
        a = np.zeros((3, 2))
        b = np.full((3, 2), 0.1)
        assert torus_distance(a, b).shape == (3,)

    @given(points)
    def test_symmetry(self, p):
        q = np.roll(p, 1, axis=0)
        assert np.allclose(torus_distance(p, q), torus_distance(q, p))

    @given(points)
    def test_invariant_under_integer_translation(self, p):
        q = np.roll(p, 1, axis=0)
        shifted = p + np.array([3.0, -2.0])
        assert np.allclose(
            torus_distance(p, q), torus_distance(shifted, q), atol=1e-6
        )

    @given(points)
    def test_delta_components_bounded(self, p):
        q = np.roll(p, 1, axis=0)
        delta = torus_delta(p, q)
        assert np.all(np.abs(delta) <= 0.5 + 1e-12)


class TestPairwise:
    def test_shape_and_diagonal(self):
        pts = np.random.default_rng(0).random((5, 2))
        matrix = pairwise_distances(pts)
        assert matrix.shape == (5, 5)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_matches_pointwise(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((4, 2)), rng.random((3, 2))
        matrix = pairwise_distances(a, b)
        for i in range(4):
            for j in range(3):
                assert matrix[i, j] == pytest.approx(
                    float(torus_distance(a[i], b[j]))
                )

    def test_symmetric(self):
        pts = np.random.default_rng(2).random((6, 2))
        matrix = pairwise_distances(pts)
        assert np.allclose(matrix, matrix.T)

    def test_triangle_inequality(self):
        pts = np.random.default_rng(3).random((8, 2))
        d = pairwise_distances(pts)
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestWithinRange:
    def test_thresholding(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[0.05, 0.0], [0.3, 0.0]])
        mask = within_range(a, b, 0.1)
        assert mask.tolist() == [[True, False]]


class TestSampling:
    def test_random_points_shape(self, rng):
        pts = random_points(rng, 10)
        assert pts.shape == (10, 2)
        assert np.all((pts >= 0) & (pts < 1))

    def test_disk_sample_radius(self, rng):
        centers = np.full((200, 2), 0.5)
        pts = disk_sample(rng, centers, 0.1)
        assert np.all(torus_distance(pts, centers) <= 0.1 + 1e-12)

    def test_disk_sample_wraps(self, rng):
        centers = np.zeros((50, 2))
        pts = disk_sample(rng, centers, 0.2)
        assert np.all((pts >= 0) & (pts < 1))
        assert np.all(torus_distance(pts, centers) <= 0.2 + 1e-12)

    def test_disk_sample_roughly_uniform(self, rng):
        # mean radius of uniform disk samples is 2R/3
        centers = np.full((4000, 2), 0.5)
        pts = disk_sample(rng, centers, 0.3)
        mean_r = float(np.mean(torus_distance(pts, centers)))
        assert mean_r == pytest.approx(0.2, rel=0.05)
