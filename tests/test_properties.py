"""Cross-cutting property-based tests (hypothesis) on core invariants."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.order import Order, order_min
from repro.geometry.tessellation import SquareTessellation
from repro.infrastructure.backbone import Backbone
from repro.mobility.shapes import UniformDiskShape
from repro.routing.scheme_b import SchemeB
from repro.simulation.traffic import permutation_traffic
from repro.wireless.link_capacity import (
    contact_probability_ms_bs_at_range,
    contact_probability_ms_ms_at_range,
)
from tests.test_scheme_b_vector import masked_matrix_oracle

exponents = st.fractions(
    min_value=Fraction(-2), max_value=Fraction(2), max_denominator=8
)


class TestOrderAlgebraLaws:
    @given(a=exponents, b=exponents, c=exponents)
    def test_multiplication_distributes_over_min(self, a, b, c):
        x, y, z = Order(a), Order(b), Order(c)
        assert order_min(x * z, y * z) == order_min(x, y) * z

    @given(a=exponents, b=exponents, c=exponents)
    def test_multiplication_associative(self, a, b, c):
        x, y, z = Order(a), Order(b), Order(c)
        assert (x * y) * z == x * (y * z)

    @given(a=exponents, b=exponents)
    def test_division_inverts_multiplication(self, a, b):
        x, y = Order(a), Order(b)
        assert (x * y) / y == x

    @given(a=exponents)
    def test_sqrt_squares_back(self, a):
        x = Order(a)
        assert x.sqrt() ** 2 == x

    @given(a=exponents, b=exponents)
    def test_dominance_sum_is_commutative_idempotent(self, a, b):
        x, y = Order(a), Order(b)
        assert x + y == y + x
        assert x + x == x


class TestManhattanRouteLength:
    @given(
        side=st.integers(2, 12),
        a=st.integers(0, 143),
        b=st.integers(0, 143),
    )
    def test_route_length_is_wrapped_l1_distance(self, side, a, b):
        tess = SquareTessellation(side)
        a %= tess.cell_count
        b %= tess.cell_count
        row_a, col_a = tess.rowcol(a)
        row_b, col_b = tess.rowcol(b)
        wrap_rows = min((row_a - row_b) % side, (row_b - row_a) % side)
        wrap_cols = min((col_a - col_b) % side, (col_b - col_a) % side)
        route = tess.manhattan_route(a, b)
        assert len(route) == wrap_rows + wrap_cols + 1


class TestContactProbabilityProperties:
    SHAPE = UniformDiskShape(1.0)

    @given(
        f=st.floats(1.0, 30.0),
        r_t=st.floats(1e-4, 5e-3),
        d=st.floats(0.0, 0.7),
    )
    @settings(max_examples=60)
    def test_probabilities_bounded(self, f, r_t, d):
        dd = np.array([d])
        ms_ms = contact_probability_ms_ms_at_range(self.SHAPE, f, r_t, dd)[0]
        ms_bs = contact_probability_ms_bs_at_range(self.SHAPE, f, r_t, dd)[0]
        assert 0.0 <= ms_ms <= 1.0
        assert 0.0 <= ms_bs <= 1.0

    @given(f=st.floats(1.0, 20.0), r_t=st.floats(1e-4, 1e-2))
    @settings(max_examples=40)
    def test_monotone_in_home_distance(self, f, r_t):
        grid = np.linspace(0.0, 0.7, 24)
        ms_ms = contact_probability_ms_ms_at_range(self.SHAPE, f, r_t, grid)
        ms_bs = contact_probability_ms_bs_at_range(self.SHAPE, f, r_t, grid)
        assert np.all(np.diff(ms_ms) <= 1e-12)
        assert np.all(np.diff(ms_bs) <= 1e-12)

    @given(f=st.floats(1.0, 20.0), d=st.floats(0.0, 0.05))
    @settings(max_examples=40)
    def test_quadratic_in_range(self, f, d):
        dd = np.array([d])
        small = contact_probability_ms_ms_at_range(self.SHAPE, f, 1e-3, dd)[0]
        double = contact_probability_ms_ms_at_range(self.SHAPE, f, 2e-3, dd)[0]
        if small > 0:
            assert double / small == pytest.approx(4.0)


class TestSchemeBFlowInvariants:
    def _scheme(self, c, seed=0, n=60, k=8):
        rng = np.random.default_rng(seed)
        homes = rng.random((n, 2))
        bs = rng.random((k, 2))
        ms_zone, bs_zone, _ = SchemeB.squarelet_zones(homes, bs, 2)
        access = masked_matrix_oracle(
            homes, bs, ms_zone, bs_zone, UniformDiskShape(1.0), 2.0, 0.08
        )
        return SchemeB(ms_zone, bs_zone, access, Backbone(k, c))

    @given(
        c_small=st.floats(1e-6, 1e-3),
        factor=st.floats(1.5, 100.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_rate_monotone_in_wire_capacity(self, c_small, factor):
        traffic = permutation_traffic(np.random.default_rng(5), 60)
        slow = self._scheme(c_small).sustainable_rate(traffic).per_node_rate
        fast = self._scheme(c_small * factor).sustainable_rate(traffic).per_node_rate
        assert fast >= slow

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_backbone_scale_inverse_in_flow(self, scale):
        backbone = Backbone(6, 1.0)
        zone = [0, 0, 0, 1, 1, 1]
        base = backbone.spread_scale(zone, {(0, 1): 1.0})
        scaled = backbone.spread_scale(zone, {(0, 1): scale})
        assert scaled == pytest.approx(base / scale)


class TestTrafficInvariants:
    @given(n=st.integers(2, 150), seed=st.integers(0, 100))
    @settings(max_examples=40)
    def test_permutation_invariants(self, n, seed):
        traffic = permutation_traffic(np.random.default_rng(seed), n)
        dest = traffic.destination
        assert sorted(dest.tolist()) == list(range(n))
        assert np.all(dest != np.arange(n))
        matrix = traffic.traffic_matrix()
        assert matrix.sum() == n
