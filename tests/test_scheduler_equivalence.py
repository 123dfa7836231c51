"""Production schedulers against their loop and dense-matrix oracles.

Every range-based scheduler evaluates on one sparse cell-grid path
(``schedule(positions)``).  This module keeps the two formulations it
replaced as oracles -- the direct loop transcription of Definition 10 and
of the greedy feasibility scan (the semantic specs), and the vectorized
dense-matrix versions -- and checks that the production path gives
*exactly* the same ``Schedule.pairs`` in the same order, on randomized
position sets and on the degenerate geometries the sweeps can produce
(single node, co-located nodes, range exceeding the torus diameter).  The
bit-identity matters beyond aesthetics: the persistent experiment store
keys cached trials by result digests, which must not shift with the
evaluation path.  ``benchmarks/test_neighbor_index.py`` and
``benchmarks/test_parallel_speedup.py`` time the production path against
these oracles.
"""

import math
from typing import List, Optional, Sequence

import numpy as np
import pytest

from repro.geometry.torus import pairwise_distances
from repro.wireless.protocol_model import Link, ProtocolModel
from repro.wireless.scheduler import (
    GreedyMatchingScheduler,
    PolicySStar,
    VariableRangeScheduler,
)


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def strict_pairs_reference(
    distances: np.ndarray, transmission_range: float, delta: float = 1.0
) -> List[Link]:
    """Loop transcription of Definition 10 (``O(n^2 * pairs)``), the
    semantic spec of ``ProtocolModel.strict_pairs``."""
    guard = ProtocolModel(delta).guard_factor * transmission_range
    count = distances.shape[0]
    pairs: List[Link] = []
    for i in range(count):
        for j in range(i + 1, count):
            if distances[i, j] >= transmission_range:
                continue
            enabled = True
            for other in range(count):
                if other == i or other == j:
                    continue
                if distances[other, i] < guard or distances[other, j] < guard:
                    enabled = False
                    break
            if enabled:
                pairs.append((i, j))
    return pairs


def strict_pairs_vectorized(
    distances: np.ndarray, transmission_range: float, delta: float = 1.0
) -> List[Link]:
    """Vectorized Definition 10 on the pairwise-distance matrix.

    ``guard_count[i]`` counts nodes strictly inside the guard disk of ``i``
    including ``i`` itself (distance zero); a pair is enabled iff both
    endpoints count exactly two (themselves and each other -- the in-range
    condition guarantees each endpoint lies in the other's guard disk since
    ``guard > R_T``).
    """
    guard = ProtocolModel(delta).guard_factor * transmission_range
    guard_count = (distances < guard).sum(axis=1)
    lonely = guard_count == 2
    enabled = (
        np.triu(distances < transmission_range, k=1)
        & lonely[:, None]
        & lonely[None, :]
    )
    return [(int(i), int(j)) for i, j in np.argwhere(enabled)]


def greedy_candidates(
    distances: np.ndarray,
    transmission_range: float,
    candidates: Optional[Sequence[Link]] = None,
) -> List[Link]:
    """In-range candidate links (all pairs by default) in ``(distance, a,
    b)`` order, from a dense row-major scan."""
    if candidates is None:
        rows, cols = np.nonzero(np.triu(distances <= transmission_range, k=1))
        candidates = list(zip(rows.tolist(), cols.tolist()))
    else:
        candidates = [
            (int(a), int(b))
            for a, b in candidates
            if distances[a, b] <= transmission_range
        ]
    candidates.sort(
        key=lambda pair: (distances[pair[0], pair[1]], pair[0], pair[1])
    )
    return candidates


def select_reference(
    candidates: Sequence[Link], distances: np.ndarray, guard: float
) -> List[Link]:
    """Original greedy loop: scan every chosen link per candidate."""
    chosen: List[Link] = []
    used = np.zeros(distances.shape[0], dtype=bool)
    transmitters: List[int] = []
    for a, b in candidates:
        if used[a] or used[b]:
            continue
        # Both directions are used (bandwidth split), so both endpoints
        # act as transmitters for interference purposes.
        conflict = False
        for tx in transmitters:
            if distances[tx, a] < guard or distances[tx, b] < guard:
                conflict = True
                break
        if conflict:
            continue
        for other_a, other_b in chosen:
            if (
                distances[a, other_a] < guard
                or distances[a, other_b] < guard
                or distances[b, other_a] < guard
                or distances[b, other_b] < guard
            ):
                conflict = True
                break
        if conflict:
            continue
        chosen.append((a, b))
        transmitters.extend((a, b))
        used[a] = used[b] = True
    return chosen


def select_vectorized(
    candidates: Sequence[Link], distances: np.ndarray, guard: float
) -> List[Link]:
    """Greedy loop with an O(1) feasibility test per candidate.

    ``blocked[x]`` is true once some chosen transmitter sits within the
    guard distance of ``x``; accepting a link updates the mask with two
    vectorized row comparisons.
    """
    chosen: List[Link] = []
    used = np.zeros(distances.shape[0], dtype=bool)
    blocked = np.zeros(distances.shape[0], dtype=bool)
    for a, b in candidates:
        if used[a] or used[b] or blocked[a] or blocked[b]:
            continue
        chosen.append((a, b))
        used[a] = used[b] = True
        blocked |= distances[a] < guard
        blocked |= distances[b] < guard
    return chosen


def greedy_reference(
    distances: np.ndarray,
    transmission_range: float,
    delta: float = 1.0,
    candidates: Optional[Sequence[Link]] = None,
) -> List[Link]:
    """``GreedyMatchingScheduler``'s links by the loop oracle."""
    guard = ProtocolModel(delta).guard_factor * transmission_range
    ordered = greedy_candidates(distances, transmission_range, candidates)
    return select_reference(ordered, distances, guard)


def greedy_vectorized(
    distances: np.ndarray,
    transmission_range: float,
    delta: float = 1.0,
    candidates: Optional[Sequence[Link]] = None,
) -> List[Link]:
    """``GreedyMatchingScheduler``'s links by the dense-mask oracle."""
    guard = ProtocolModel(delta).guard_factor * transmission_range
    ordered = greedy_candidates(distances, transmission_range, candidates)
    return select_vectorized(ordered, distances, guard)


CASES = 200

def _random_case(seed):
    """One randomized geometry: positions plus a range/delta draw."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 90))
    # Mix uniform draws with clustered ones so guard zones actually bite.
    if rng.random() < 0.3:
        centers = rng.random((max(1, n // 8), 2))
        picks = rng.integers(0, centers.shape[0], size=n)
        positions = np.mod(
            centers[picks] + rng.normal(scale=0.02, size=(n, 2)), 1.0
        )
    else:
        positions = rng.random((n, 2))
    transmission_range = float(rng.uniform(0.01, 0.6))
    delta = float(rng.uniform(0.2, 2.0))
    return positions, transmission_range, delta


# Each oracle's pairs at ``scheduler``'s range, shaped like ``Schedule.pairs``.
def _sstar_reference(positions, scheduler, delta):
    return tuple(
        strict_pairs_reference(
            pairwise_distances(positions), scheduler.transmission_range(), delta
        )
    )


def _sstar_dense(positions, scheduler, delta):
    return tuple(
        strict_pairs_vectorized(
            pairwise_distances(positions), scheduler.transmission_range(), delta
        )
    )


def _greedy_reference(positions, scheduler, delta=1.0, candidates=None):
    return tuple(
        greedy_reference(
            pairwise_distances(positions),
            scheduler.transmission_range(),
            delta,
            candidates,
        )
    )


def _greedy_dense(positions, scheduler, delta=1.0, candidates=None):
    return tuple(
        greedy_vectorized(
            pairwise_distances(positions),
            scheduler.transmission_range(),
            delta,
            candidates,
        )
    )


class TestPolicySStarEquivalence:
    @pytest.mark.parametrize("seed_block", range(10))
    def test_randomized_cases(self, seed_block):
        for seed in range(seed_block * (CASES // 10), (seed_block + 1) * (CASES // 10)):
            positions, _range, delta = _random_case(seed)
            n = max(2, positions.shape[0])
            fast = PolicySStar(n, c_t=1.0, delta=delta)
            assert fast.schedule(positions).pairs == _sstar_reference(
                positions, fast, delta
            ), f"seed {seed}"

    def test_single_node(self):
        positions = np.array([[0.3, 0.7]])
        fast = PolicySStar(2)
        want = _sstar_reference(positions, fast, 1.0)
        assert fast.schedule(positions).pairs == want == ()

    def test_all_colocated(self):
        positions = np.zeros((6, 2))
        fast = PolicySStar(6, c_t=1.0)
        assert fast.schedule(positions).pairs == _sstar_reference(positions, fast, 1.0)

    def test_two_colocated_nodes_are_enabled(self):
        """n=2 co-located: each guard disk holds exactly the pair itself."""
        positions = np.zeros((2, 2))
        fast = PolicySStar(2, c_t=1.0)
        assert (
            fast.schedule(positions).pairs
            == _sstar_reference(positions, fast, 1.0)
            == ((0, 1),)
        )


class TestVariableRangeEquivalence:
    @pytest.mark.parametrize("seed_block", range(10))
    def test_randomized_cases(self, seed_block):
        for seed in range(seed_block * (CASES // 10), (seed_block + 1) * (CASES // 10)):
            positions, transmission_range, delta = _random_case(seed + 10_000)
            fast = VariableRangeScheduler(transmission_range, delta=delta)
            assert fast.schedule(positions).pairs == _sstar_reference(
                positions, fast, delta
            ), f"seed {seed}"

    def test_range_larger_than_torus(self):
        """Range beyond the torus diameter: every node is in every guard
        zone, so nothing is ever enabled (except the trivial n=2 case)."""
        rng = np.random.default_rng(42)
        positions = rng.random((12, 2))
        fast = VariableRangeScheduler(2.0)
        want = _sstar_reference(positions, fast, 1.0)
        assert fast.schedule(positions).pairs == want == ()

    def test_single_node(self):
        positions = np.array([[0.1, 0.2]])
        fast = VariableRangeScheduler(0.3)
        want = _sstar_reference(positions, fast, 1.0)
        assert fast.schedule(positions).pairs == want == ()


class TestGreedyMatchingEquivalence:
    @pytest.mark.parametrize("seed_block", range(10))
    def test_randomized_cases(self, seed_block):
        for seed in range(seed_block * (CASES // 10), (seed_block + 1) * (CASES // 10)):
            positions, transmission_range, delta = _random_case(seed + 20_000)
            fast = GreedyMatchingScheduler(transmission_range, delta=delta)
            assert fast.schedule(positions).pairs == _greedy_reference(
                positions, fast, delta
            ), f"seed {seed}"

    @pytest.mark.parametrize("seed", range(30))
    def test_candidate_restriction_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        positions = rng.random((40, 2))
        candidates = [
            (int(a), int(b))
            for a, b in rng.integers(0, 40, size=(25, 2))
            if a != b
        ]
        fast = GreedyMatchingScheduler(0.4, delta=0.7)
        assert fast.schedule(
            positions, candidates=candidates
        ).pairs == _greedy_reference(positions, fast, 0.7, candidates)

    def test_all_colocated(self):
        positions = np.full((8, 2), 0.25)
        fast = GreedyMatchingScheduler(0.1)
        assert fast.schedule(positions).pairs == _greedy_reference(positions, fast)

    def test_range_larger_than_torus(self):
        rng = np.random.default_rng(7)
        positions = rng.random((15, 2))
        fast = GreedyMatchingScheduler(2.0)
        assert fast.schedule(positions).pairs == _greedy_reference(positions, fast)

    def test_single_node(self):
        positions = np.array([[0.9, 0.9]])
        fast = GreedyMatchingScheduler(0.5)
        want = _greedy_reference(positions, fast)
        assert fast.schedule(positions).pairs == want == ()


class TestSparseDensePathEquivalence:
    """The cell-grid path must match the dense-matrix oracles bit-for-bit:
    same pairs, same order, at every n the sweeps use."""

    @pytest.mark.parametrize("seed_block", range(5))
    def test_sstar_sparse_vs_dense(self, seed_block):
        for seed in range(seed_block * 20, (seed_block + 1) * 20):
            positions, _range, delta = _random_case(seed + 40_000)
            n = max(2, positions.shape[0])
            policy = PolicySStar(n, c_t=1.0, delta=delta)
            dense = _sstar_dense(positions, policy, delta)
            assert policy.schedule(positions).pairs == dense, f"seed {seed}"

    @pytest.mark.parametrize("seed_block", range(5))
    def test_greedy_sparse_vs_dense(self, seed_block):
        for seed in range(seed_block * 20, (seed_block + 1) * 20):
            positions, transmission_range, delta = _random_case(seed + 50_000)
            scheduler = GreedyMatchingScheduler(transmission_range, delta=delta)
            dense = _greedy_dense(positions, scheduler, delta)
            assert scheduler.schedule(positions).pairs == dense, f"seed {seed}"

    @pytest.mark.parametrize("n", [50, 200, 800])
    def test_sstar_three_way_at_scaling_sizes(self, n):
        """sparse == dense == reference at sizes spanning the sweep grid
        (reference capped at n=200 -- it is O(n^2 pairs))."""
        rng = np.random.default_rng(n)
        positions = rng.random((n, 2))
        policy = PolicySStar(n, c_t=1.5, delta=1.0)
        sparse = policy.schedule(positions).pairs
        assert sparse == _sstar_dense(positions, policy, 1.0)
        if n <= 200:
            assert sparse == _sstar_reference(positions, policy, 1.0)

    @pytest.mark.parametrize("seed", range(15))
    def test_greedy_candidate_restriction_sparse_vs_dense(self, seed):
        rng = np.random.default_rng(seed)
        positions = rng.random((60, 2))
        candidates = [
            (int(a), int(b))
            for a, b in rng.integers(0, 60, size=(40, 2))
            if a != b
        ]
        scheduler = GreedyMatchingScheduler(0.3, delta=0.8)
        dense = _greedy_dense(positions, scheduler, 0.8, candidates)
        sparse = scheduler.schedule(positions, candidates=candidates)
        assert sparse.pairs == dense

    def test_greedy_tie_break_is_deterministic(self):
        """Equidistant candidates resolve by ``(dist, a, b)`` regardless of
        enumeration order (dense row-major vs sparse stencil)."""
        # four nodes on a 0.1-spaced line: links (0,1), (1,2), (2,3) all tie
        positions = np.array([[0.1, 0.5], [0.2, 0.5], [0.3, 0.5], [0.4, 0.5]])
        scheduler = GreedyMatchingScheduler(0.11, delta=0.5)
        sparse = scheduler.schedule(positions)
        assert sparse.pairs == _greedy_dense(positions, scheduler, 0.5)
        shuffled = [(2, 3), (1, 2), (0, 1)]
        assert scheduler.schedule(
            positions, candidates=shuffled
        ).pairs == _greedy_dense(positions, scheduler, 0.5, shuffled)


class TestVectorizedStillFeasible:
    """The vectorized outputs must keep the old feasibility guarantees."""

    @pytest.mark.parametrize("seed", range(20))
    def test_sstar_protocol_feasible(self, seed):
        rng = np.random.default_rng(seed)
        positions = rng.random((150, 2))
        policy = PolicySStar(node_count=150, c_t=1.5, delta=1.0)
        schedule = policy.schedule(positions)
        model = ProtocolModel(delta=1.0)
        assert model.is_feasible_schedule(
            positions, schedule.pairs, schedule.transmission_range
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_greedy_protocol_feasible(self, seed):
        rng = np.random.default_rng(seed)
        positions = rng.random((80, 2))
        scheduler = GreedyMatchingScheduler(1.0 / math.sqrt(80), delta=1.0)
        schedule = scheduler.schedule(positions)
        model = ProtocolModel(delta=1.0)
        assert model.is_feasible_schedule(
            positions, schedule.pairs, schedule.transmission_range
        )
