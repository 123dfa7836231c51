"""Unit tests for link capacity (Lemma 2 / Corollary 1)."""

import math

import numpy as np
import pytest

from repro.mobility.processes import IIDAroundHome
from repro.mobility.shapes import ConeShape, TruncatedGaussianShape, UniformDiskShape
from repro.wireless.link_capacity import (
    contact_probability_ms_bs,
    contact_probability_ms_bs_at_range,
    contact_probability_ms_ms,
    contact_probability_ms_ms_at_range,
    measure_activity_fraction,
    measure_link_capacities,
    ms_bs_contact_kernel,
)
from repro.wireless.scheduler import PolicySStar, VariableRangeScheduler


SHAPE = UniformDiskShape(1.0)


class TestClosedForms:
    def test_ms_ms_decreases_with_home_distance(self):
        d = np.array([0.0, 0.05, 0.1, 0.18])
        mu = contact_probability_ms_ms(SHAPE, f=10.0, n=400, home_distance=d)
        assert np.all(np.diff(mu) <= 1e-15)

    def test_ms_ms_zero_beyond_twice_mobility_radius(self):
        # support of eta is 2D; at f=10 that is home distance 0.2
        mu = contact_probability_ms_ms(
            SHAPE, f=10.0, n=400, home_distance=np.array([0.25])
        )
        assert mu[0] == 0.0

    def test_ms_bs_zero_beyond_mobility_radius(self):
        # the BS is static: support is D, i.e. 0.1 at f=10
        mu = contact_probability_ms_bs(
            SHAPE, f=10.0, n=400, home_distance=np.array([0.12])
        )
        assert mu[0] == 0.0

    def test_scaling_in_n(self):
        d = np.array([0.05])
        mu400 = contact_probability_ms_ms(SHAPE, 10.0, 400, d)
        mu1600 = contact_probability_ms_ms(SHAPE, 10.0, 1600, d)
        assert mu400[0] / mu1600[0] == pytest.approx(4.0)

    def test_range_parameterisation_consistent(self):
        d = np.array([0.04])
        n, c_t = 500, 0.7
        via_n = contact_probability_ms_bs(SHAPE, 8.0, n, d, c_t)
        via_range = contact_probability_ms_bs_at_range(
            SHAPE, 8.0, c_t / math.sqrt(n), d
        )
        assert via_n[0] == pytest.approx(via_range[0])

    @pytest.mark.parametrize(
        "shape", [SHAPE, ConeShape(1.5), TruncatedGaussianShape(1.0)]
    )
    def test_ms_bs_kernel_is_the_closed_form_bit_for_bit(self, shape):
        """The hoisted kernel keeps eq. (8)'s evaluation order
        ``(pi R_T^2 f^2) * s(f d) / (2 Z)``, so scheme B's access vector
        does not move by an ulp."""
        d = np.random.default_rng(4).random((7, 5)) * 0.2
        f, r_t = 9.3, 0.031
        want = (
            math.pi * r_t ** 2 * (f ** 2)
            * shape.density(f * d) / (2.0 * shape.normalization())
        )
        kernel = ms_bs_contact_kernel(shape, f, r_t)
        np.testing.assert_array_equal(kernel(d), want)
        np.testing.assert_array_equal(kernel(d[2:4]), want[2:4])
        np.testing.assert_array_equal(
            contact_probability_ms_bs_at_range(shape, f, r_t, d), want
        )

    def test_ms_ms_contact_probability_monte_carlo(self, rng):
        """Corollary 1 eq. (6) against brute-force simulation."""
        f, n = 5.0, 400
        r_t = 1.0 / math.sqrt(n)
        home_distance = 0.15
        home_a = np.array([0.3, 0.5])
        home_b = home_a + np.array([home_distance, 0.0])
        trials = 60000
        scale = 1.0 / f
        pos_a = home_a + SHAPE.sample_offsets(rng, trials, scale)
        pos_b = home_b + SHAPE.sample_offsets(rng, trials, scale)
        empirical = float(
            np.mean(np.linalg.norm(pos_a - pos_b, axis=1) <= r_t)
        )
        predicted = contact_probability_ms_ms_at_range(
            SHAPE, f, r_t, np.array([home_distance])
        )[0]
        assert empirical == pytest.approx(predicted, rel=0.2)

    def test_ms_bs_contact_probability_monte_carlo(self, rng):
        """Corollary 1 eq. (7): note the paper's extra factor 1/2."""
        f, n = 5.0, 400
        r_t = 1.0 / math.sqrt(n)
        home_distance = 0.1
        home = np.array([0.3, 0.5])
        bs = home + np.array([home_distance, 0.0])
        trials = 60000
        pos = home + SHAPE.sample_offsets(rng, trials, 1.0 / f)
        empirical = float(np.mean(np.linalg.norm(pos - bs, axis=1) <= r_t))
        predicted = contact_probability_ms_bs_at_range(
            SHAPE, f, r_t, np.array([home_distance])
        )[0]
        # eq. (8) halves the geometric contact probability (bandwidth split)
        assert empirical == pytest.approx(2.0 * predicted, rel=0.2)


class TestMonteCarloMeasurement:
    def _make_process(self, rng, n=150, f=3.0):
        homes = rng.random((n, 2))
        return IIDAroundHome(homes, SHAPE, 1.0 / f, rng)

    def test_measured_capacities_are_frequencies(self, rng):
        process = self._make_process(rng)
        scheduler = PolicySStar(node_count=150, c_t=0.4, delta=0.5)
        capacities = measure_link_capacities(process, scheduler, slots=40)
        assert all(0 < value <= 1 for value in capacities.values())
        assert all(i < j for (i, j) in capacities)

    def test_static_nodes_appended(self, rng):
        process = self._make_process(rng, n=100)
        bs = rng.random((20, 2))
        scheduler = PolicySStar(node_count=120, c_t=0.4, delta=0.5)
        capacities = measure_link_capacities(
            process, scheduler, slots=30, static_positions=bs
        )
        assert all(j < 120 for (_, j) in capacities)

    def test_invalid_slots(self, rng):
        process = self._make_process(rng)
        scheduler = PolicySStar(node_count=150)
        with pytest.raises(ValueError):
            measure_link_capacities(process, scheduler, slots=0)


class TestLemma3ActivityFraction:
    def test_activity_bounded_below(self, rng):
        """Lemma 3: under S* in a uniformly dense network each node is
        scheduled a constant fraction of the time."""
        n, f = 300, 2.0
        homes = rng.random((n, 2))
        process = IIDAroundHome(homes, SHAPE, 1.0 / f, rng)
        scheduler = PolicySStar(node_count=n, c_t=0.4, delta=0.5)
        activity = measure_activity_fraction(process, scheduler, slots=120)
        assert float(activity.mean()) > 0.01

    def test_activity_fraction_shape(self, rng):
        homes = rng.random((50, 2))
        process = IIDAroundHome(homes, SHAPE, 0.2, rng)
        scheduler = PolicySStar(node_count=60, c_t=0.4, delta=0.5)
        bs = rng.random((10, 2))
        activity = measure_activity_fraction(
            process, scheduler, slots=10, static_positions=bs
        )
        assert activity.shape == (60,)
