"""Scheme A's array flow analysis against the per-session loop it replaced.

:class:`LoopOracle` is the original implementation of
:meth:`SchemeA.sustainable_rate`: one ``1 x m`` Corollary-1 block per
endpoint constraint, and boundary capacities cached per unordered cell pair
in the orientation of the first edge that asks for them.  The array code
must reproduce it bit for bit -- the rate with ``==`` and the details
exactly -- because sweep digests hash those floats.

:func:`three_block_capacities` is :meth:`SchemeA._capacities` before it
fused each squarelet's blocks: one distance-and-kernel call each for the
own, east and north block.  The fused pass must give the same bytes.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.table1 import TABLE1_ROWS
from repro.mobility.shapes import UniformDiskShape
from repro.routing.base import FlowResult
from repro.routing.scheme_a import EAST, NORTH, SOUTH, WEST, SchemeA, _without_diagonal
from repro.simulation.network import HybridNetwork
from repro.simulation.traffic import permutation_traffic

SHAPE = UniformDiskShape(1.0)
ROWS = {row.label: row for row in TABLE1_ROWS}
STRONG_BS = ROWS["strong mobility, with BSs"]
STRONG_NO_BS = ROWS["strong mobility, no BSs"]


class LoopOracle:
    """Scheme A's flow analysis as one loop over the sessions."""

    def __init__(self, scheme: SchemeA):
        self.scheme = scheme
        self.members = scheme._instance.members
        self.edge_capacity_cache = {}

    def cell_edge_capacity(self, cell_from, cell_to):
        """Boundary capacity, cached per unordered pair in the orientation
        of its first call."""
        key = (min(cell_from, cell_to), max(cell_from, cell_to))
        cached = self.edge_capacity_cache.get(key)
        if cached is not None:
            return cached
        members_from = self.members[cell_from]
        members_to = self.members[cell_to]
        if members_from.size == 0 or members_to.size == 0:
            value = 0.0
        else:
            block = self.scheme._mu_block(members_from, members_to)
            if cell_from == cell_to:
                np.fill_diagonal(block, 0.0)
            value = 0.5 * float(block.sum())
        self.edge_capacity_cache[key] = value
        return value

    def endpoint_capacity(self, node, cell):
        members = self.members[cell]
        members = members[members != node]
        if members.size == 0:
            return 0.0
        return 0.5 * float(self.scheme._mu_block(np.array([node]), members).sum())

    def sustainable_rate(self, traffic) -> FlowResult:
        scheme = self.scheme
        edge_load = {}
        per_session_caps = []
        total_hops = 0
        for source, dest in traffic.pairs():
            route = scheme.cell_route(source, dest)
            total_hops += max(1, len(route) - 1)
            for cell_from, cell_to in zip(route, route[1:]):
                edge = (cell_from, cell_to)
                edge_load[edge] = edge_load.get(edge, 0) + 1
            if len(route) > 1:
                first_cap = self.endpoint_capacity(source, route[1])
                last_cap = self.endpoint_capacity(dest, route[-2])
                per_session_caps.append(min(first_cap, last_cap))
            else:
                direct = 0.5 * float(
                    scheme._mu_block(np.array([source]), np.array([dest]))[0, 0]
                )
                relayed = min(
                    self.endpoint_capacity(source, route[0]),
                    self.endpoint_capacity(dest, route[0]),
                )
                per_session_caps.append(max(direct, relayed))
        edge_rate = math.inf
        worst_edge = None
        for edge, load in edge_load.items():
            rate = self.cell_edge_capacity(*edge) / load
            if rate < edge_rate:
                edge_rate, worst_edge = rate, edge
        session_rate = min(per_session_caps) if per_session_caps else math.inf
        rate = min(edge_rate, session_rate)
        if not math.isfinite(rate):
            rate = 0.0
        bottleneck = "cell-edge" if edge_rate <= session_rate else "session-endpoint"
        return FlowResult(
            per_node_rate=max(0.0, rate),
            bottleneck=bottleneck,
            details={
                "edge_rate": edge_rate,
                "session_rate": session_rate,
                "worst_edge": worst_edge,
                "mean_route_hops": total_hops / max(1, traffic.session_count),
                "cells_per_side": scheme.tessellation.cells_per_side,
            },
        )


def three_block_capacities(scheme: SchemeA):
    """``(own, toward, boundary)`` from three separate blocks per cell: the
    own block, then the east and the north block, each built by its own
    ``_mu_block`` call."""
    tess = scheme.tessellation
    side = tess.cells_per_side
    own = np.zeros(scheme.node_count)
    toward = np.zeros((scheme.node_count, 4))
    boundary = np.zeros((tess.cell_count, 4))
    members = scheme._instance.members
    for cell, rows in enumerate(members):
        if rows.size == 0:
            continue
        own[rows] = 0.5 * _without_diagonal(scheme._mu_block(rows, rows)).sum(axis=1)
        if side == 1:
            continue
        row, col = divmod(cell, side)
        for ahead, back, other in (
            (EAST, WEST, tess.flat_index(row, col + 1)),
            (NORTH, SOUTH, tess.flat_index(row + 1, col)),
        ):
            cols = members[other]
            if cols.size == 0:
                continue
            block = scheme._mu_block(rows, cols)
            flipped = np.ascontiguousarray(block.T)
            toward[rows, ahead] = 0.5 * block.sum(axis=1)
            toward[cols, back] = 0.5 * flipped.sum(axis=1)
            boundary[cell, ahead] = 0.5 * block.sum()
            boundary[other, back] = 0.5 * flipped.sum()
    return own, toward, boundary


def assert_same_bytes(got, want):
    for got_array, want_array in zip(got, want, strict=True):
        assert got_array.dtype == want_array.dtype == np.float64
        assert got_array.shape == want_array.shape
        assert got_array.tobytes() == want_array.tobytes()


def assert_identical(got: FlowResult, want: FlowResult):
    assert got.per_node_rate == want.per_node_rate
    assert got.bottleneck == want.bottleneck
    assert got.details == want.details
    for key in ("edge_rate", "session_rate", "mean_route_hops"):
        assert type(got.details[key]) is float
    worst = got.details["worst_edge"]
    assert worst is None or all(type(cell) is int for cell in worst)


def check(homes, f, cell_fraction, traffic):
    got = SchemeA(homes, SHAPE, f, cell_fraction=cell_fraction).sustainable_rate(traffic)
    oracle = LoopOracle(SchemeA(homes, SHAPE, f, cell_fraction=cell_fraction))
    want = oracle.sustainable_rate(traffic)
    assert_identical(got, want)
    return got


class TestMatchesLoop:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 90),
        side=st.sampled_from([1, 2, 3, 4, 5, 7]),
        f=st.floats(1.0, 14.0),
        clusters=st.integers(0, 3),
    )
    @example(seed=3, n=40, side=2, f=2.0, clusters=0)
    @example(seed=4, n=60, side=3, f=5.0, clusters=1)
    def test_property_bit_identical(self, seed, n, side, f, clusters):
        """Any homes (uniform, or clustered so most cells are empty), any
        ``f`` and a squarelet grid of ``side`` cells: 1 (one cell), 2 (east
        and west coincide, routes go forward on ties) and 3+ (wrap-around
        routes both ways)."""
        f = min(f, 2.0 * (side + 0.5))  # keeps cell_fraction <= 2
        cell_fraction = f / (side + 0.5)
        rng = np.random.default_rng(seed)
        if clusters:
            centres = rng.random((clusters, 2))
            homes = (centres[rng.integers(0, clusters, n)] + 0.05 * rng.random((n, 2))) % 1.0
        else:
            homes = rng.random((n, 2))
        scheme = SchemeA(homes, SHAPE, f, cell_fraction=cell_fraction)
        assert scheme.tessellation.cells_per_side == side
        check(homes, f, cell_fraction, permutation_traffic(rng, n))

    @pytest.mark.parametrize("row", TABLE1_ROWS, ids=lambda row: row.label)
    @pytest.mark.parametrize("n", [200, 700])
    def test_table1_networks(self, row, n):
        """Every Table I row's home-points and ``f``, as a sweep builds them."""
        for seed in (0, 1):
            net = HybridNetwork.build(row.parameters, n, np.random.default_rng(seed))
            traffic = net.sample_traffic()
            got = net.scheme_a().sustainable_rate(traffic)
            want = LoopOracle(net.scheme_a()).sustainable_rate(traffic)
            assert_identical(got, want)

    def test_empty_cells_give_zero_rate(self):
        """Clustered homes with small mobility: a route crosses an empty
        cell, so a boundary has capacity 0 and so does the rate."""
        rng = np.random.default_rng(11)
        homes = np.concatenate([rng.random((30, 2)) * 0.05, 0.5 + rng.random((30, 2)) * 0.05])
        result = check(homes, 12.0, 0.7, permutation_traffic(rng, 60))
        assert result.per_node_rate == 0.0
        assert result.details["edge_rate"] == 0.0

    def test_single_cell(self):
        rng = np.random.default_rng(2)
        result = check(rng.random((25, 2)), 1.0, 1.5, permutation_traffic(rng, 25))
        assert result.details["cells_per_side"] == 1
        assert result.details["worst_edge"] is None
        assert result.details["edge_rate"] == math.inf
        assert result.bottleneck == "session-endpoint"


class TestCapacities:
    """Every per-node and per-boundary capacity, not only the binding one."""

    @pytest.mark.parametrize("n, f, side", [(600, 3.0, 4), (300, 2.0, 2), (400, 2.0, 3)])
    def test_every_capacity_matches_its_own_block(self, n, f, side):
        rng = np.random.default_rng(n + side)
        scheme = SchemeA(rng.random((n, 2)), SHAPE, f, cell_fraction=f / (side + 0.5))
        tess = scheme.tessellation
        assert tess.cells_per_side == side
        oracle = LoopOracle(scheme)
        own, toward, boundary = scheme._capacities()
        for cell in tess.iter_cells():
            row, col = tess.rowcol(cell)
            neighbour = {
                EAST: tess.flat_index(row, col + 1),
                WEST: tess.flat_index(row, col - 1),
                NORTH: tess.flat_index(row + 1, col),
                SOUTH: tess.flat_index(row - 1, col),
            }
            for node in scheme.relay_candidates(cell):
                assert own[node] == oracle.endpoint_capacity(node, cell)
                for direction, other in neighbour.items():
                    assert toward[node, direction] == oracle.endpoint_capacity(node, other)
            for direction, other in neighbour.items():
                assert boundary[cell, direction] == scheme.cell_edge_capacity(cell, other)


class TestOrientation:
    """A boundary's capacity is summed in the orientation of the first
    route edge across it; the reverse sum can differ in the last bit."""

    @pytest.fixture(scope="class")
    def net(self):
        return HybridNetwork.build(STRONG_BS.parameters, 500, np.random.default_rng(1))

    def test_pinned_rate(self, net):
        result = net.scheme_a().sustainable_rate(net.sample_traffic())
        # the (min, max) orientation of the worst edge gives ...c4p-8
        assert result.per_node_rate.hex() == "0x1.5acb5d325d9c5p-8"
        assert result.details["worst_edge"] == (23, 18)

    def test_orientations_differ_in_the_last_bit(self, net):
        scheme = net.scheme_a()
        assert scheme.cell_edge_capacity(23, 18).hex() == "0x1.9bd17eabcf29ap-4"
        assert scheme.cell_edge_capacity(18, 23).hex() == "0x1.9bd17eabcf299p-4"

    def test_rate_does_not_depend_on_earlier_calls(self, net):
        traffic = net.sample_traffic()
        fresh = net.scheme_a().sustainable_rate(traffic)
        scheme = net.scheme_a()
        tess = scheme.tessellation
        for cell in tess.iter_cells():
            for other in tess.neighbors(cell):
                scheme.cell_edge_capacity(min(cell, other), max(cell, other))
        assert_identical(scheme.sustainable_rate(traffic), fresh)
        assert_identical(scheme.sustainable_rate(traffic), fresh)

    def test_edge_capacity_is_the_oriented_block_sum(self, net):
        scheme = net.scheme_a()
        tess = scheme.tessellation
        for cell in range(0, tess.cell_count, 5):
            for other in tess.neighbors(cell):
                block = scheme._mu_block(
                    scheme.relay_candidates(cell), scheme.relay_candidates(other)
                )
                assert scheme.cell_edge_capacity(cell, other) == 0.5 * float(block.sum())


class TestFusedPass:
    """``_capacities`` builds each squarelet's own, east and north blocks in
    one call; every capacity has the bytes of the three-call version."""

    @pytest.mark.parametrize("row", [STRONG_NO_BS, STRONG_BS], ids=lambda row: row.label)
    @pytest.mark.parametrize("n", [300, 2000])
    def test_strong_realisations(self, row, n):
        for seed in (0, 1):
            net = HybridNetwork.build(row.parameters, n, np.random.default_rng(seed))
            scheme = net.scheme_a()
            assert scheme.tessellation.cells_per_side >= 3
            assert_same_bytes(scheme._capacities(), three_block_capacities(scheme))

    @pytest.mark.parametrize("side", [1, 2, 3])
    def test_empty_single_member_and_crowded_cells(self, side):
        """Cells with no member, with exactly one, and crowded ones, on a
        grid of 1, 2 or 3 squarelets per side; a crowded cell's own block
        alone is past numpy's 8192-entry reduction buffer."""
        counts = {0: 150, side: 150}
        if side > 1:
            counts.update({1: 1, side * side - 1: 0})
        scheme = self.scheme_with(counts, side)
        sizes = [cell.size for cell in scheme._instance.members]
        assert sizes[0] ** 2 > 8192
        if side > 1:
            assert 0 in sizes and 1 in sizes
        assert_same_bytes(scheme._capacities(), three_block_capacities(scheme))

    @pytest.mark.parametrize("side", [2, 3])
    def test_fused_sub_blocks_past_numpy_reduction_buffer(self, side):
        """A fused cell whose east block holds more than 8192 entries:
        numpy reduces a non-contiguous array of that size in buffer-sized
        pieces, so only the contiguous copy keeps the whole-block sum's
        order."""
        scheme = self.scheme_with({0: 60, 1: 140, side: 70}, side)
        sizes = [cell.size for cell in scheme._instance.members]
        assert sizes[0] * sizes[1] > 8192
        assert_same_bytes(scheme._capacities(), three_block_capacities(scheme))

    @staticmethod
    def scheme_with(counts, side):
        """Scheme A on ``side`` squarelets per side, with ``counts[cell]``
        homes in the given cells and up to 5 in each other cell."""
        rng = np.random.default_rng(side)
        homes = []
        for cell in range(side * side):
            row, col = divmod(cell, side)
            count = counts.get(cell, rng.integers(0, 6))
            homes.append((np.array([col, row]) + rng.random((count, 2))) / side)
        f = 0.9 * (side + 0.5)
        scheme = SchemeA(np.concatenate(homes), SHAPE, f, cell_fraction=f / (side + 0.5))
        assert scheme.tessellation.cells_per_side == side
        return scheme

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 80),
        side=st.sampled_from([1, 2, 3, 4, 6]),
        clusters=st.integers(0, 3),
    )
    def test_property_same_bytes(self, seed, n, side, clusters):
        rng = np.random.default_rng(seed)
        if clusters:
            centres = rng.random((clusters, 2))
            homes = (centres[rng.integers(0, clusters, n)] + 0.05 * rng.random((n, 2))) % 1.0
        else:
            homes = rng.random((n, 2))
        f = 0.9 * (side + 0.5)
        scheme = SchemeA(homes, SHAPE, f, cell_fraction=f / (side + 0.5))
        assert scheme.tessellation.cells_per_side == side
        assert_same_bytes(scheme._capacities(), three_block_capacities(scheme))
