"""Unit tests for scheduling policies (S*, S-bar, greedy matching)."""

import math

import numpy as np
import pytest

from repro.geometry.torus import pairwise_distances
from repro.wireless.protocol_model import ProtocolModel
from repro.wireless.scheduler import (
    GreedyMatchingScheduler,
    PolicySStar,
    VariableRangeScheduler,
)


class TestPolicySStar:
    def test_range_is_ct_over_sqrt_n(self):
        policy = PolicySStar(node_count=400, c_t=2.0)
        assert policy.transmission_range() == pytest.approx(0.1)
        assert policy.transmission_range(100) == pytest.approx(0.2)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            PolicySStar(node_count=1)
        with pytest.raises(ValueError):
            PolicySStar(node_count=10, c_t=0)

    def test_schedule_pairs_within_range(self, rng):
        positions = rng.random((200, 2))
        policy = PolicySStar(node_count=200, c_t=1.0)
        schedule = policy.schedule(positions)
        distances = pairwise_distances(positions)
        for i, j in schedule.pairs:
            assert distances[i, j] < schedule.transmission_range

    def test_schedule_is_protocol_feasible(self, rng):
        positions = rng.random((150, 2))
        policy = PolicySStar(node_count=150, c_t=1.5, delta=1.0)
        schedule = policy.schedule(positions)
        model = ProtocolModel(delta=1.0)
        assert model.is_feasible_schedule(
            positions, schedule.pairs, schedule.transmission_range
        )

    def test_active_nodes(self, rng):
        positions = rng.random((100, 2))
        policy = PolicySStar(node_count=100, c_t=1.5)
        schedule = policy.schedule(positions)
        assert len(schedule.active_nodes) == 2 * len(schedule)

    def test_nonempty_with_high_probability(self, rng):
        """Lemma 3 implies a constant fraction of nodes are scheduled.  The
        guard-emptiness constant is exp(-2 pi ((1+Delta) c_T)^2), so the
        constants must be small for the effect to be visible at n = 300."""
        total = 0
        policy = PolicySStar(node_count=300, c_t=0.4, delta=0.5)
        for _ in range(10):
            positions = rng.random((300, 2))
            total += len(policy.schedule(positions))
        assert total > 0


class TestVariableRange:
    def test_uses_given_range(self):
        scheduler = VariableRangeScheduler(0.07)
        assert scheduler.transmission_range() == 0.07

    def test_larger_range_schedules_fewer_pairs(self, rng):
        """The Theorem 2 effect: blowing up R_T suppresses concurrency
        because guard zones blanket the network."""
        positions = rng.random((300, 2))
        small = VariableRangeScheduler(1.0 / math.sqrt(300))
        large = VariableRangeScheduler(8.0 / math.sqrt(300))
        assert len(large.schedule(positions)) <= len(small.schedule(positions))

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            VariableRangeScheduler(0.0)


class TestGreedyMatching:
    def test_schedule_is_protocol_feasible(self, rng):
        positions = rng.random((80, 2))
        scheduler = GreedyMatchingScheduler(0.08, delta=1.0)
        schedule = scheduler.schedule(positions)
        model = ProtocolModel(delta=1.0)
        assert model.is_feasible_schedule(positions, schedule.pairs, 0.08)

    def test_pairs_node_disjoint(self, rng):
        positions = rng.random((80, 2))
        schedule = GreedyMatchingScheduler(0.1).schedule(positions)
        nodes = [node for pair in schedule.pairs for node in pair]
        assert len(nodes) == len(set(nodes))

    def test_candidate_restriction(self, rng):
        positions = rng.random((40, 2))
        scheduler = GreedyMatchingScheduler(0.5)
        schedule = scheduler.schedule(positions, candidates=[(0, 1)])
        assert set(schedule.pairs) <= {(0, 1)}

    def test_schedules_at_least_as_many_as_sstar(self, rng):
        """Greedy matching is less strict than S*, so it should find at
        least as many links on the same snapshot."""
        positions = rng.random((200, 2))
        r = 1.5 / math.sqrt(200)
        greedy = GreedyMatchingScheduler(r, delta=1.0).schedule(positions)
        strict = PolicySStar(node_count=200, c_t=1.5, delta=1.0).schedule(positions)
        assert len(greedy) >= len(strict)

    def test_maximality(self, rng):
        """No in-range pair of unused nodes may remain addable."""
        positions = rng.random((60, 2))
        r = 0.06
        scheduler = GreedyMatchingScheduler(r, delta=1.0)
        schedule = scheduler.schedule(positions)
        model = ProtocolModel(delta=1.0)
        used = schedule.active_nodes
        distances = pairwise_distances(positions)
        for i in range(60):
            for j in range(i + 1, 60):
                if i in used or j in used or distances[i, j] > r:
                    continue
                candidate = list(schedule.pairs) + [(i, j)]
                assert not model.is_feasible_schedule(positions, candidate, r)


class TestTDMACellScheduler:
    def _make(self, ms_count=9, bs_count=3, colors=None):
        from repro.wireless.scheduler import TDMACellScheduler

        cell_of_ms = np.arange(ms_count) % bs_count
        colors = np.arange(bs_count) if colors is None else np.asarray(colors)
        return TDMACellScheduler(cell_of_ms, colors, ms_count, cell_range=0.1)

    def test_one_pair_per_active_cell(self):
        scheduler = self._make(colors=[0, 0, 1])
        schedule = scheduler.schedule(np.zeros((12, 2)))
        # slot 0 activates colour 0: BSs 0 and 1
        assert len(schedule) == 2
        assert all(peer in (9, 10) for _, peer in schedule.pairs)

    def test_groups_rotate(self):
        scheduler = self._make(colors=[0, 1, 2])
        served_bs = []
        for _ in range(6):
            schedule = scheduler.schedule(np.zeros((12, 2)))
            served_bs.extend(peer - 9 for _, peer in schedule.pairs)
        assert served_bs == [0, 1, 2, 0, 1, 2]

    def test_round_robin_within_cell(self):
        scheduler = self._make(ms_count=6, bs_count=1, colors=[0])
        served_ms = []
        for _ in range(12):
            schedule = scheduler.schedule(np.zeros((7, 2)))
            served_ms.append(schedule.pairs[0][0])
        assert sorted(set(served_ms)) == list(range(6))
        assert served_ms[:6] == served_ms[6:]

    def test_empty_cells_skipped(self):
        from repro.wireless.scheduler import TDMACellScheduler

        scheduler = TDMACellScheduler(
            np.zeros(4, dtype=int), np.array([0, 0]), 4, cell_range=0.1
        )
        schedule = scheduler.schedule(np.zeros((6, 2)))
        assert len(schedule) == 1  # BS 1 has no members

    def test_validation(self):
        from repro.wireless.scheduler import TDMACellScheduler

        with pytest.raises(ValueError):
            TDMACellScheduler(np.zeros(3, int), np.zeros(1, int), 4, 0.1)
        with pytest.raises(ValueError):
            TDMACellScheduler(np.zeros(3, int), np.zeros(1, int), 3, 0.0)


SCHEDULERS = {
    "sstar": lambda: PolicySStar(node_count=45, c_t=0.4, delta=0.5),
    "variable": lambda: VariableRangeScheduler(0.12, delta=0.5),
    "greedy": lambda: GreedyMatchingScheduler(0.15, delta=0.5),
}


class TestStatelessSchedulers:
    """A range-based scheduler keeps no state between slots, so one
    instance reused over independent position sets must schedule each
    exactly as a fresh instance would."""

    @pytest.mark.parametrize("kind", sorted(SCHEDULERS))
    def test_reused_instance_matches_fresh(self, rng, kind):
        reused = SCHEDULERS[kind]()
        for _ in range(4):
            positions = rng.random((45, 2))
            got = reused.schedule(positions)
            want = SCHEDULERS[kind]().schedule(positions)
            assert got.pairs == want.pairs
            assert got.transmission_range == want.transmission_range

    def test_reference_sstar_matches_fast_on_successive_slots(self, rng):
        fast = PolicySStar(node_count=20, c_t=0.4, delta=0.5)
        reference = PolicySStar(node_count=20, c_t=0.4, delta=0.5, reference=True)
        for _ in range(3):
            positions = rng.random((20, 2))
            want = reference.schedule(positions).pairs
            assert fast.schedule(positions).pairs == want
