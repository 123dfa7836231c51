"""Equivalence battery for :class:`IncrementalCellGridIndex`.

The incremental index is only allowed to exist because of one contract:
after any sequence of ``update`` calls, ``pairs_within`` / ``neighbors_of``
are **bit-identical** -- same pairs, same lexicographic order, same float
bits -- to a fresh :class:`CellGridIndex` built from the current positions.
This suite attacks the contract from the directions where diff-based
maintenance is most likely to go wrong:

- wrap-around seam crossings (a node jumping the ``x ~ 0 / x ~ 1``
  discontinuity changes cells non-locally);
- cell-boundary grazes (coordinates landing exactly on ``k / m`` edges,
  where ``floor`` assignment must match the fresh build's);
- the dense-fallback regime ``n <= _SMALL_N`` and the ``m < 3`` large
  radius fallback, where the incremental path must defer entirely;
- in-place no-op "moves" (a node reported moved but at unchanged
  coordinates);
- the rebuild heuristic boundary (mass moves falling back to a full
  re-bucket);
- and a 50-slot :class:`MetropolisWalkAroundHome` trajectory -- the
  restricted-mobility workload the index was built for -- compared slot by
  slot.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.neighbors import (
    _SMALL_N,
    CellGridIndex,
    IncrementalCellGridIndex,
)
from repro.mobility.processes import MetropolisWalkAroundHome, StaticProcess
from repro.mobility.shapes import TruncatedGaussianShape, UniformDiskShape

coordinate = st.floats(
    min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False
)
#: Coordinates that graze cell boundaries for every resolution up to 13:
#: exact multiples of 1/m land on the floor discontinuity.
grazing_coordinate = st.builds(
    lambda m, k: k / m,
    st.integers(min_value=2, max_value=13),
    st.integers(min_value=0, max_value=12),
).filter(lambda value: 0.0 <= value < 1.0)
#: Seam-hugging coordinates within 0.03 of the wrap-around discontinuity.
seam_coordinate = st.floats(
    min_value=-0.03, max_value=0.03, allow_nan=False
).map(lambda value: value % 1.0)
destination_coordinate = st.one_of(coordinate, grazing_coordinate, seam_coordinate)
destination = st.tuples(destination_coordinate, destination_coordinate)

point = st.tuples(coordinate, coordinate)
#: Mixes the dense fallback (n <= _SMALL_N) with the grid path.
points = st.lists(point, min_size=1, max_size=90).map(
    lambda rows: np.array(rows, dtype=float)
)
#: Radii spanning the grid regime, the resolution cap and the m < 3 dense
#: fallback past 1/3.
radius = st.floats(min_value=1e-3, max_value=0.8, allow_nan=False)


class DiffOnlyIndex(IncrementalCellGridIndex):
    """Never rebuilds: forces the diff path even when most nodes move (the
    rebuild path gets its own tests).  ``benchmarks/bench_million.py`` times
    its slots."""

    REBUILD_FRACTION = 1.0


def _assert_bit_identical(incremental, pts, r):
    """Every query of the incremental index equals a fresh build's, bit
    for bit."""
    fresh = CellGridIndex(pts)
    i, j, d = incremental.pairs_within(r)
    ei, ej, ed = fresh.pairs_within(r)
    np.testing.assert_array_equal(i, ei)
    np.testing.assert_array_equal(j, ej)
    np.testing.assert_array_equal(d, ed)  # float bits, not approx
    queries = pts[:: max(pts.shape[0] // 7, 1)]
    qi, pj, qd = incremental.neighbors_of(queries, r)
    fi, fj, fd = fresh.neighbors_of(queries, r)
    np.testing.assert_array_equal(qi, fi)
    np.testing.assert_array_equal(pj, fj)
    np.testing.assert_array_equal(qd, fd)


class TestIncrementalMatchesFresh:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), pts=points, r=radius)
    def test_after_k_random_moves(self, data, pts, r):
        """The core contract: k slots of random moves (seam crossings,
        boundary grazes, no-op moves, mask and diff reporting) leave the
        incremental index bit-identical to a fresh build."""
        n = pts.shape[0]
        index = DiffOnlyIndex(pts)
        _assert_bit_identical(index, pts, r)
        current = np.array(pts)
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            movers = data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    max_size=min(n, 8),
                    unique=True,
                )
            )
            new = current.copy()
            for node in movers:
                if data.draw(st.booleans()):
                    new[node] = data.draw(destination)
                # else: reported moved but coordinates unchanged (graze)
            if data.draw(st.booleans()):
                index.update(new, moved=np.array(movers, dtype=int))
            else:
                index.update(new)  # diff against the previous slot
            current = new
            _assert_bit_identical(index, current, r)

    @settings(max_examples=60, deadline=None)
    @given(pts=points, r=radius, seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_full_rebuild_path(self, pts, r, seed):
        """Mass moves cross the rebuild threshold: the from-scratch rebuild
        must be just as bit-identical as the diff path."""
        index = IncrementalCellGridIndex(pts)
        index.pairs_within(r)
        new = np.random.default_rng(seed).random(pts.shape)
        index.update(new)
        assert index.rebuilds >= 1 or pts.shape[0] == 0 or np.array_equal(new, pts)
        _assert_bit_identical(index, new, r)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), r=radius)
    def test_dense_fallback_regime(self, data, r):
        """n <= _SMALL_N point sets stay on the dense fallback through
        updates."""
        small = data.draw(
            st.lists(point, min_size=1, max_size=_SMALL_N).map(
                lambda rows: np.array(rows, dtype=float)
            )
        )
        index = DiffOnlyIndex(small)
        n = small.shape[0]
        for _ in range(3):
            new = small.copy()
            node = data.draw(st.integers(min_value=0, max_value=n - 1))
            new[node] = data.draw(destination)
            index.update(new)
            small = new
            _assert_bit_identical(index, small, r)

    def test_zero_radius_still_raises(self):
        index = IncrementalCellGridIndex(np.random.default_rng(0).random((50, 2)))
        with pytest.raises(ValueError):
            index.pairs_within(0.0)

    def test_update_shape_mismatch_raises(self):
        index = IncrementalCellGridIndex(np.random.default_rng(0).random((50, 2)))
        with pytest.raises(ValueError):
            index.update(np.zeros((49, 2)))

    def test_points_property_is_read_only(self):
        index = IncrementalCellGridIndex(np.random.default_rng(0).random((10, 2)))
        with pytest.raises(ValueError):
            index.points[0, 0] = 0.5

    def test_counters_track_update_modes(self):
        rng = np.random.default_rng(1)
        pts = rng.random((200, 2))
        index = IncrementalCellGridIndex(pts)
        index.pairs_within(0.05)
        few = pts.copy()
        few[:3] += 1e-4
        index.update(few)
        assert index.updates == 1 and index.last_moved == 3
        assert not index.last_rebuild
        index.update(rng.random((200, 2)))
        assert index.rebuilds == 1 and index.last_rebuild


class TestMetropolisTrajectory:
    """The restricted-mobility workload, slot by slot for 50 slots."""

    @pytest.mark.parametrize(
        "shape,index_class",
        [
            # the Gaussian shape rejects often -> genuine sparse moves on
            # the diff path; the disk shape accepts most proposals, and the
            # production threshold exercises the rebuild heuristic
            # mid-trajectory
            (TruncatedGaussianShape(), DiffOnlyIndex),
            (UniformDiskShape(), IncrementalCellGridIndex),
        ],
    )
    def test_every_slot_matches_fresh(self, shape, index_class):
        rng = np.random.default_rng(42)
        home = rng.random((150, 2))
        process = MetropolisWalkAroundHome(home, shape, 0.08, rng, burn_in=4)
        guard = 0.06
        positions = process.positions()
        index = index_class(positions)
        for _slot in range(50):
            positions, accepted = process.step_moved()
            # the accept mask is exactly the changed-row set
            changed = np.any(positions != index.points, axis=1)
            assert not np.any(changed & ~accepted)
            index.update(positions, moved=accepted)
            _assert_bit_identical(index, positions, guard)
        assert index.updates == 50
        if index_class.REBUILD_FRACTION < 1.0:
            # the high-acceptance disk walk must actually exercise the
            # rebuild heuristic mid-trajectory
            assert index.rebuilds > 0

    def test_static_process_reports_nothing_moved(self):
        process = StaticProcess(np.random.default_rng(5).random((30, 2)))
        positions, moved = process.step_moved()
        assert not moved.any()
        index = IncrementalCellGridIndex(positions)
        index.update(positions, moved=moved)
        assert index.last_moved == 0
        _assert_bit_identical(index, positions, 0.1)
