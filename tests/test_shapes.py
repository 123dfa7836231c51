"""Unit tests for mobility shapes ``s(d)``."""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regimes import NetworkParameters
from repro.mobility import shapes
from repro.mobility.shapes import (
    ConeShape,
    QuadraticDecayShape,
    TruncatedGaussianShape,
    UniformDiskShape,
)
from repro.simulation.network import HybridNetwork

ALL_SHAPES = [
    UniformDiskShape(1.0),
    ConeShape(1.0),
    TruncatedGaussianShape(1.0, sigma=0.4),
    QuadraticDecayShape(1.0),
]


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda s: type(s).__name__)
class TestPaperAssumptions:
    def test_validate_passes(self, shape):
        shape.validate()

    def test_non_increasing(self, shape):
        grid = np.linspace(0, shape.support_radius, 100)
        values = shape.density(grid)
        assert np.all(np.diff(values) <= 1e-12)

    def test_finite_support(self, shape):
        beyond = shape.density(np.array([shape.support_radius * 1.5]))
        assert beyond[0] == 0.0

    def test_positive_at_origin(self, shape):
        assert shape.density(np.array([0.0]))[0] > 0

    def test_normalization_positive(self, shape):
        assert shape.normalization() > 0


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda s: type(s).__name__)
class TestSampling:
    def test_offsets_within_support(self, shape, rng):
        offsets = shape.sample_offsets(rng, 500, scale=0.2)
        radii = np.linalg.norm(offsets, axis=1)
        assert np.all(radii <= 0.2 * shape.support_radius + 1e-9)

    def test_scale_contracts(self, shape, rng):
        small = shape.sample_offsets(rng, 300, scale=0.01)
        assert np.all(np.linalg.norm(small, axis=1) <= 0.01 * shape.support_radius + 1e-9)

    def test_isotropy(self, shape, rng):
        offsets = shape.sample_offsets(rng, 4000, scale=1.0)
        assert abs(float(np.mean(offsets[:, 0]))) < 0.05
        assert abs(float(np.mean(offsets[:, 1]))) < 0.05


class TestUniformDiskSpecifics:
    def test_mean_radius(self, rng):
        # uniform disk: E[r] = 2D/3
        shape = UniformDiskShape(1.0)
        offsets = shape.sample_offsets(rng, 8000, scale=1.0)
        mean_r = float(np.mean(np.linalg.norm(offsets, axis=1)))
        assert mean_r == pytest.approx(2 / 3, rel=0.03)

    def test_normalization_is_disk_area(self):
        shape = UniformDiskShape(2.0)
        assert shape.normalization() == pytest.approx(np.pi * 4.0, rel=1e-3)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            UniformDiskShape(0)


class TestGenericSamplerMatchesAnalytic:
    def test_cone_mean_radius(self, rng):
        # cone: radial pdf ~ (1 - r) * r on [0,1]; E[r] = 1/2
        shape = ConeShape(1.0)
        offsets = shape.sample_offsets(rng, 8000, scale=1.0)
        mean_r = float(np.mean(np.linalg.norm(offsets, axis=1)))
        assert mean_r == pytest.approx(0.5, rel=0.04)


class TestContactKernel:
    @pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda s: type(s).__name__)
    def test_support_is_twice_radius(self, shape):
        big_d = shape.support_radius
        assert shape.contact_kernel(np.array([2.2 * big_d]))[0] == 0.0
        assert shape.contact_kernel(np.array([0.0]))[0] > 0

    @pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda s: type(s).__name__)
    def test_kernel_non_increasing(self, shape):
        grid = np.linspace(0, 2 * shape.support_radius, 50)
        values = shape.contact_kernel(grid)
        assert np.all(np.diff(values) <= 1e-6)

    def test_disk_kernel_at_zero_is_disk_area(self):
        # eta(0) = integral of s^2 = disk area for the indicator shape
        shape = UniformDiskShape(1.0)
        assert shape.contact_kernel(np.array([0.0]))[0] == pytest.approx(
            np.pi, rel=0.05
        )

    def test_disk_kernel_matches_lens_area(self):
        # eta(d) for two unit disks is the lens (intersection) area
        shape = UniformDiskShape(1.0)
        d = 1.0
        expected = 2 * np.arccos(d / 2) - (d / 2) * np.sqrt(4 - d ** 2)
        assert shape.contact_kernel(np.array([d]))[0] == pytest.approx(
            expected, rel=0.05
        )

    def test_kernel_monte_carlo_agreement(self, rng):
        """eta(d)/Z^2 should match the empirical probability density that two
        independently-moving nodes land near each other."""
        shape = ConeShape(1.0)
        z = shape.normalization()
        d = 0.6
        trials = 40000
        a = shape.sample_offsets(rng, trials, 1.0)
        b = shape.sample_offsets(rng, trials, 1.0) + np.array([d, 0.0])
        eps = 0.1
        hits = np.sum(np.linalg.norm(a - b, axis=1) <= eps)
        empirical = hits / trials / (np.pi * eps ** 2)
        predicted = shape.contact_kernel(np.array([d]))[0] / z ** 2
        assert empirical == pytest.approx(predicted, rel=0.25)


def _interp_oracle(shape, d):
    knots, values = shapes._kernel_table(shape)[:2]
    return np.interp(np.asarray(d, dtype=float), knots, values, right=0.0)


def _assert_bit_equal(got, want):
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


class TestContactKernelMatchesInterp:
    """The direct knot lookup reproduces ``np.interp`` on the same table bit
    for bit: inside the support, on and next to every knot, at and beyond
    ``2D``, below ``0``, for NaN, and for scalars and blocks alike."""

    #: ALL_SHAPES share D = 1; these radii need the lookup's rounding
    #: correction in both directions at some knot
    SHAPES = ALL_SHAPES + [ConeShape(1.1), TruncatedGaussianShape(3.0, sigma=1.1)]

    @pytest.mark.parametrize("shape", SHAPES, ids=repr)
    def test_random_separations(self, shape):
        rng = np.random.default_rng(2)
        d = rng.uniform(0.0, 2.2 * 2 * shape.support_radius, 200_000)
        _assert_bit_equal(shape.contact_kernel(d), _interp_oracle(shape, d))

    @pytest.mark.parametrize("shape", SHAPES, ids=repr)
    def test_every_knot_and_its_neighbours(self, shape):
        knots = shapes._kernel_table(shape)[0]
        d = np.concatenate(
            [knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)]
        )
        _assert_bit_equal(shape.contact_kernel(d), _interp_oracle(shape, d))

    @pytest.mark.parametrize("shape", SHAPES, ids=repr)
    def test_edges(self, shape):
        two_d = 2 * shape.support_radius
        d = np.array(
            [0.0, -0.0, two_d, 1.5 * two_d, 1e300, np.inf, -1e-3, -two_d, -np.inf, np.nan]
        )
        got = shape.contact_kernel(d)
        _assert_bit_equal(got, _interp_oracle(shape, d))
        assert got[2] == shapes._kernel_table(shape)[1][-1]
        assert np.all(got[3:6] == 0.0) and np.isnan(got[-1])

    @pytest.mark.parametrize("shape", SHAPES, ids=repr)
    def test_scalar_and_block_shapes(self, shape):
        rng = np.random.default_rng(3)
        block = rng.uniform(0.0, 2.5 * shape.support_radius, (37, 23))
        scalar = block[0, 0]
        for d in (block, scalar, np.array(scalar), float(scalar), [0.1, 0.2]):
            _assert_bit_equal(shape.contact_kernel(d), _interp_oracle(shape, d))


class TestValidationRejectsBadShapes:
    def test_increasing_shape_rejected(self):
        class Increasing(UniformDiskShape):
            def density(self, d):
                d = np.asarray(d, dtype=float)
                return np.where(d <= self.support_radius, 0.1 + d, 0.0)

        with pytest.raises(ValueError):
            Increasing(1.0).validate()

    def test_zero_at_origin_rejected(self):
        class ZeroOrigin(UniformDiskShape):
            def density(self, d):
                return np.zeros_like(np.asarray(d, dtype=float))

        with pytest.raises(ValueError):
            ZeroOrigin(1.0).validate()


class TestProposition1:
    """The paper's Proposition 1: ``int_O s(f ||Y - X||) dY ~ 1/f^2``."""

    @pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda s: type(s).__name__)
    def test_integral_scales_inverse_f_squared(self, shape):
        # numeric 2-D quadrature of s(f * |Y|) over the torus
        def integral(f):
            grid = np.linspace(0, 1, 400, endpoint=False) + 0.5 / 400
            xx, yy = np.meshgrid(grid, grid)
            dx = np.minimum(xx, 1 - xx)  # torus distance to the origin
            dy = np.minimum(yy, 1 - yy)
            d = np.sqrt(dx ** 2 + dy ** 2)
            return float(shape.density(f * d).mean())  # cell area folded in

        ratio = integral(4.0) / integral(8.0)
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_integral_constant_is_normalization(self):
        # for large f the integral equals Z / f^2 with Z = int s
        shape = UniformDiskShape(1.0)
        f = 16.0
        grid = np.linspace(0, 1, 1600, endpoint=False) + 0.5 / 1600
        xx, yy = np.meshgrid(grid, grid)
        dx = np.minimum(xx, 1 - xx)
        dy = np.minimum(yy, 1 - yy)
        d = np.sqrt(dx ** 2 + dy ** 2)
        integral = float(shape.density(f * d).mean())
        assert integral == pytest.approx(shape.normalization() / f ** 2, rel=0.02)


class TestValueSemantics:
    """Shapes are immutable values; their tables are memoised per value."""

    def test_equal_shapes_share_one_table(self):
        shape = TruncatedGaussianShape(1.0, sigma=0.4)
        table = shapes._kernel_table(shape)
        assert shapes._kernel_table(TruncatedGaussianShape(1.0, 0.4)) is table
        assert shapes._kernel_table(pickle.loads(pickle.dumps(shape))) is table

    def test_equality_is_by_class_and_parameters(self):
        assert ConeShape(1.0) == ConeShape(1)
        assert ConeShape(1.0) != QuadraticDecayShape(1.0)
        assert ConeShape(1.0) != ConeShape(2.0)
        assert TruncatedGaussianShape(1.0, 0.3) != TruncatedGaussianShape(1.0, 0.4)
        assert hash(ConeShape(1.0)) == hash(ConeShape(1))

    @pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda s: type(s).__name__)
    def test_fields_are_frozen(self, shape):
        with pytest.raises(dataclasses.FrozenInstanceError):
            shape.support_radius = 2.0

    @pytest.mark.parametrize("cls", [type(shape) for shape in ALL_SHAPES])
    @pytest.mark.parametrize("radius", [0, -1.0])
    def test_bad_support_radius_rejected(self, cls, radius):
        with pytest.raises(ValueError):
            cls(radius)

    @pytest.mark.parametrize("sigma", [0, -0.4])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError):
            TruncatedGaussianShape(1.0, sigma=sigma)

    def test_signatures_unchanged(self):
        assert UniformDiskShape() == UniformDiskShape(1.0)
        assert TruncatedGaussianShape(2.0, 0.3) == TruncatedGaussianShape(
            support_radius=2.0, sigma=0.3
        )
        assert TruncatedGaussianShape().sigma == 0.4

    def test_network_builds_compute_the_kernel_table_once(self):
        shapes._kernel_table.cache_clear()
        params = NetworkParameters(alpha="1/4", cluster_exponent=1)
        for seed in (1, 2):
            net = HybridNetwork.build(params, 200, np.random.default_rng(seed))
            net.scheme_a().sustainable_rate(net.sample_traffic())
        info = shapes._kernel_table.cache_info()
        assert info.misses == 1 and info.hits >= 1


#: sha256 of the kernel table's separation and value bytes, and
#: ``normalization().hex()``, as the quadrature has always computed them
PINNED_TABLES = {
    ("UniformDiskShape", 1.0): (
        "74e93b8b12897fe2f437e6bf169a83dff06037d483d4cb4d38e7e031ecc9cc3a",
        "0x1.921fb54442d1cp+1",
    ),
    ("ConeShape", 1.0): (
        "0e284cacd84c215fa090acff263f0402fd1a787c2ffa260d408dbe6342077442",
        "0x1.0c151f517660fp+0",
    ),
    ("TruncatedGaussianShape", 1.0): (
        "3a4718b3e6533e76f55caa8250fe01c29fc89453ce0b703f2223dc72f68e260b",
        "0x1.ec1a7258a3c17p-1",
    ),
    ("QuadraticDecayShape", 1.0): (
        "b87d294c1225d68aabcdbaa294bef29c060f73e5806de4246f8a0052b0f7b973",
        "0x1.921faefa31913p+0",
    ),
    ("UniformDiskShape", 2.0): (
        "3b9518fb12662b3363db45a564c1686650d52f0fdf63216aeacdd8130cf2d97b",
        "0x1.921fb54442d1cp+3",
    ),
    ("ConeShape", 2.0): (
        "452db3ec0b50e09a3c85e2bab43b0fbad4c54b21b31534c73fcbb8b476fcafd3",
        "0x1.0c151f517660fp+2",
    ),
    ("TruncatedGaussianShape", 2.0): (
        "88efa0b31f6727107690f6edaa0096f0f0fb096ba2700676ce7020ccfd09514d",
        "0x1.015bb1e3a8aeap+0",
    ),
    ("QuadraticDecayShape", 2.0): (
        "313ce01a7bb7c9e4c341bdc4bb485eeb36951f75f80b6abb4bdbab6a31a3fc88",
        "0x1.921faefa31913p+2",
    ),
}


@pytest.mark.parametrize("name, radius", sorted(PINNED_TABLES))
def test_tables_bit_equal_to_pinned(name, radius):
    shape = getattr(shapes, name)(radius)
    separations, values = shapes._kernel_table(shape)
    digest = hashlib.sha256(separations.tobytes() + values.tobytes()).hexdigest()
    assert (digest, shape.normalization().hex()) == PINNED_TABLES[(name, radius)]
