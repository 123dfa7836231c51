"""Full-mesh backbone loads per BS class against per-wire accounting.

:class:`WireLoopOracle` is the original full-mesh load accounting of
:class:`Backbone`: one dict entry per wire, each call adding its share to
every ``(src, dst)`` wire it hits, in call order.  The class-based loads
must reproduce it bit for bit -- ``max_edge_load``, ``sustainable_scale``
and ``max_utilization`` with ``==`` -- because scheme C's sweep digests
hash the backbone rate.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.table1 import TABLE1_ROWS
from repro.geometry.neighbors import CellGridIndex
from repro.geometry.torus import pairwise_distances
from repro.infrastructure.backbone import Backbone
from repro.routing.scheme_c import SchemeC
from repro.simulation.network import HybridNetwork
from repro.simulation.traffic import permutation_traffic

TRIVIAL_BS = {row.label: row for row in TABLE1_ROWS}["trivial mobility, with BSs"]


class WireLoopOracle:
    """Full-mesh load accounting as one dict entry per wire."""

    def __init__(self, bs_count, edge_capacity):
        self.bs_count = bs_count
        self.capacity = float(edge_capacity)
        self.load = {}

    def reset_load(self):
        self.load.clear()

    def add_flow(self, source_bs, target_bs, rate):
        if source_bs != target_bs:
            edge = (min(source_bs, target_bs), max(source_bs, target_bs))
            self.load[edge] = self.load.get(edge, 0.0) + rate

    def spread_flow(self, source_set, target_set, total_rate):
        source_set = list(source_set)
        target_set = list(target_set)
        share = total_rate / (len(source_set) * len(target_set))
        for src in source_set:
            for dst in target_set:
                if src != dst:
                    edge = (src, dst) if src < dst else (dst, src)
                    self.load[edge] = self.load.get(edge, 0.0) + share

    def max_edge_load(self):
        return max(self.load.values(), default=0.0)

    def max_utilization(self):
        return self.max_edge_load() / self.capacity

    def overloaded_edges(self):
        return [edge for edge, load in self.load.items() if load > self.capacity]

    def sustainable_scale(self):
        peak = self.max_edge_load()
        if peak == 0.0:
            return math.inf
        return self.capacity / peak


def _apply(backbone, call):
    if call[0] == "spread":
        backbone.spread_flow(*call[1:])
    elif call[0] == "add":
        backbone.add_flow(*call[1:])
    else:
        backbone.reset_load()


def _assert_same_loads(got, want):
    assert got.max_edge_load() == want.max_edge_load()
    assert got.sustainable_scale() == want.sustainable_scale()
    assert got.max_utilization() == want.max_utilization()
    edges = got.overloaded_edges()
    assert set(edges) == set(want.overloaded_edges())
    assert edges == sorted(edges)


@st.composite
def call_sequences(draw):
    k = draw(st.integers(1, 7))
    capacity = draw(st.sampled_from([0.05, 0.3, 1.0, 2.5]))
    bs = st.integers(0, k - 1)
    rate = st.one_of(
        st.just(0.0),
        st.sampled_from([0.1, 0.3, 1.0 / 3.0, 0.7, 1e-17, 3.0]),
        st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    )
    call = st.one_of(
        st.tuples(
            st.just("spread"),
            st.lists(bs, min_size=1, max_size=6),
            st.lists(bs, min_size=1, max_size=6),
            rate,
        ),
        st.tuples(st.just("add"), bs, bs, rate),
        st.just(("reset",)),
    )
    return k, capacity, draw(st.lists(call, max_size=12))


class TestAgainstWireLoop:
    @settings(max_examples=300, deadline=None)
    @given(call_sequences())
    @example((3, 1.0, [("spread", [0, 0, 1], [1, 2, 2], 0.9)]))
    @example((4, 0.3, [("spread", [1], [1], 1.0), ("add", 2, 2, 1.0)]))
    @example((1, 1.0, [("spread", [0], [0], 1.0), ("add", 0, 0, 2.0)]))
    @example((3, 0.3, [("add", 0, 1, 0.1), ("reset",), ("spread", [0, 1, 2], [0, 1, 2], 0.0)]))
    def test_loads_match_the_loop(self, case):
        k, capacity, calls = case
        fast, oracle = Backbone(k, capacity), WireLoopOracle(k, capacity)
        _assert_same_loads(fast, oracle)
        for call in calls:
            _apply(fast, call)
            _apply(oracle, call)
            _assert_same_loads(fast, oracle)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_overlapping_sets(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            k = int(rng.integers(2, 40))
            fast, oracle = Backbone(k, 0.5), WireLoopOracle(k, 0.5)
            for _ in range(int(rng.integers(1, 15))):
                sources = rng.integers(0, k, int(rng.integers(1, 12))).tolist()
                targets = rng.integers(0, k, int(rng.integers(1, 12))).tolist()
                rate = float(rng.choice([0.1, 0.7, rng.random() * 5.0]))
                fast.spread_flow(sources, targets, rate)
                oracle.spread_flow(sources, targets, rate)
            _assert_same_loads(fast, oracle)

    def test_repeated_hits_add_the_share_one_at_a_time(self):
        # six additions of 1/6 give 0.9999999999999999, six times 1/6 gives 1.0
        fast, oracle = Backbone(2, 1.0), WireLoopOracle(2, 1.0)
        for backbone in (fast, oracle):
            backbone.spread_flow([0] * 6, [1], 1.0)
        assert fast.max_edge_load() == oracle.max_edge_load() != 6 * (1.0 / 6)

    def test_calls_add_in_order(self):
        rates = (1e16, 1.0, 1.0)
        fast, oracle = Backbone(3, 1.0), WireLoopOracle(3, 1.0)
        for backbone in (fast, oracle):
            for rate in rates:
                backbone.add_flow(0, 1, rate)
        assert fast.max_edge_load() == oracle.max_edge_load() == (1e16 + 1.0) + 1.0


class TestSchemeC:
    """Scheme C on the class-based backbone equals scheme C on the loop."""

    @pytest.mark.parametrize("n", [200, 700])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_trivial_bs_rate_matches_the_loop(self, n, seed):
        net = HybridNetwork.build(TRIVIAL_BS.parameters, n, np.random.default_rng(seed))
        traffic = permutation_traffic(np.random.default_rng(seed + 100), n)
        scheme = net.scheme_c()
        oracle_scheme = SchemeC(
            ms_positions=net.process.positions(),
            bs_positions=net.bs_positions,
            ms_cluster=net.home_model.assignment,
            bs_cluster=net._bs_cluster_assignment(),
            backbone=WireLoopOracle(net.backbone.bs_count, net.backbone.edge_capacity),
            delta=net.delta,
        )
        got = scheme.sustainable_rate(traffic)
        want = oracle_scheme.sustainable_rate(traffic)
        assert got.per_node_rate == want.per_node_rate
        assert got.bottleneck == want.bottleneck
        assert got.details == want.details
        assert math.isfinite(got.details["backbone_rate"])


def networkx_colours(scheme, conflict=None):
    """networkx's largest-first colouring of ``scheme``'s BSs closer than
    ``conflict`` (default: scheme C's ``(2 + Delta) R_cell``)."""
    k = scheme._bs.shape[0]
    rows, cols = dense_conflict_pairs(scheme, conflict)
    graph = nx.Graph()
    graph.add_nodes_from(range(k))
    graph.add_edges_from(zip(rows.tolist(), cols.tolist()))
    colouring = nx.greedy_color(graph, strategy="largest_first")
    return np.array([colouring[i] for i in range(k)])


def dense_conflict_pairs(scheme, conflict=None):
    if conflict is None:
        conflict = (2.0 + scheme._delta) * scheme.cell_range
    return np.nonzero(np.triu(pairwise_distances(scheme._bs) < conflict, k=1))


class TestConflictPairs:
    """The cell-grid conflict pairs equal the dense ``k x k`` threshold's."""

    @pytest.mark.parametrize(
        "k, n, delta",
        [(150, 600, 0.5), (400, 1200, 1.0), (60, 200, 2.0), (20, 40, 1.0)],
    )
    def test_random_layouts(self, k, n, delta):
        rng = np.random.default_rng(k)
        scheme = SchemeC(
            ms_positions=rng.random((n, 2)),
            bs_positions=rng.random((k, 2)),
            ms_cluster=rng.integers(0, 4, n),
            bs_cluster=np.arange(k) % 4,
            backbone=Backbone(k, 1.0),
            delta=delta,
        )
        rows, cols = scheme._conflict_pairs()
        want_rows, want_cols = dense_conflict_pairs(scheme)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(cols, want_cols)

    @pytest.mark.parametrize("n", [300, 2000])
    def test_regular_cluster_layout_takes_the_grid_path(self, n):
        scheme = HybridNetwork.build(
            TRIVIAL_BS.parameters, n, np.random.default_rng(3)
        ).scheme_c()
        conflict = (2.0 + scheme._delta) * scheme.cell_range
        bs_count = scheme._bs.shape[0]
        assert bs_count > 32 and CellGridIndex(scheme._bs).resolution(conflict) >= 3
        rows, cols = scheme._conflict_pairs()
        want_rows, want_cols = dense_conflict_pairs(scheme)
        assert rows.size > 0
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(cols, want_cols)

    def test_dense_fallback_past_a_third_of_the_torus(self):
        """A conflict distance above 1/3 leaves fewer than three grid cells
        per side, where the index answers from the dense matrix."""
        bs = np.random.default_rng(15).random((80, 2))
        bs_cluster = np.zeros(80, dtype=int)
        bs_cluster[0] = 1
        # the lone MS of cluster 1 sits 0.1 from its only BS
        scheme = SchemeC(
            ms_positions=bs[[0, 1]] + np.array([[0.1, 0.0], [0.0, 0.0]]),
            bs_positions=bs,
            ms_cluster=np.array([1, 0]),
            bs_cluster=bs_cluster,
            backbone=Backbone(80, 1.0),
            delta=2.0,
        )
        conflict = (2.0 + scheme._delta) * scheme.cell_range
        assert CellGridIndex(bs).resolution(conflict) < 3
        rows, cols = scheme._conflict_pairs()
        want_rows, want_cols = dense_conflict_pairs(scheme)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(cols, want_cols)


class TestColouring:
    """The CSR greedy colouring equals networkx's largest-first colouring."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_layouts(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 200))
        n = int(rng.integers(k, 3 * k))
        scheme = SchemeC(
            ms_positions=rng.random((n, 2)),
            bs_positions=rng.random((k, 2)),
            ms_cluster=np.zeros(n, dtype=int),
            bs_cluster=np.zeros(k, dtype=int),
            backbone=Backbone(k, 1.0),
            delta=float(rng.choice([0.5, 1.0, 2.0])),
        )
        np.testing.assert_array_equal(scheme._groups, networkx_colours(scheme))

    def test_bss_exactly_the_conflict_distance_apart_do_not_conflict(self):
        # delta = 2 and R_cell = 1/16 put the conflict distance at 1/4: BSs
        # 0 and 1 sit exactly 1/4 apart, BSs 1 and 2 conflict at 0.24
        scheme = SchemeC(
            ms_positions=np.array([[0.3125, 0.5]]),
            bs_positions=np.array([[0.25, 0.5], [0.5, 0.5], [0.74, 0.5]]),
            ms_cluster=np.zeros(1, dtype=int),
            bs_cluster=np.zeros(3, dtype=int),
            backbone=Backbone(3, 1.0),
            delta=2.0,
        )
        assert scheme.cell_range == 1 / 16
        np.testing.assert_array_equal(scheme._groups, [0, 0, 1])
        np.testing.assert_array_equal(scheme._groups, networkx_colours(scheme))

    @pytest.mark.parametrize("n", [300, 2000])
    def test_regular_cluster_layout(self, n):
        # hexagonal BS lattices give many equal degrees: the tie order matters
        net = HybridNetwork.build(TRIVIAL_BS.parameters, n, np.random.default_rng(3))
        scheme = net.scheme_c()
        assert scheme.group_count > 1
        np.testing.assert_array_equal(scheme._groups, networkx_colours(scheme))
