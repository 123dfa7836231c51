"""Torus-aware uniform cell-grid neighbor index.

The paper's optimal policy ``S*`` works at transmission range
``R_T = Theta(1/sqrt(n))`` with a ``(1 + Delta) R_T`` guard zone
(Definition 10), so per slot each node interacts with only ``Theta(1)``
expected neighbors.  Materialising a dense ``n x n``
:func:`~repro.geometry.torus.pairwise_distances` matrix every slot is
therefore ``Theta(n^2)`` work and memory for ``Theta(n)`` useful entries.

:class:`CellGridIndex` replaces the dense matrix for radius-bounded
queries: points are bucketed into a uniform ``m x m`` grid (cell side
``1/m >= radius``) and candidate pairs are enumerated over the wrap-around
9-cell stencil of each occupied cell, fully vectorized (one ``argsort`` on
flattened cell ids plus ``repeat``/``cumsum`` bucket products -- no Python
loop over cells).  Expected cost is ``O(n)`` per query for uniform points.

Bit-identity contract: candidate distances are evaluated with exactly the
per-axis kernel of :func:`~repro.geometry.torus.pairwise_distances` on the
*raw* coordinates (the wrapped copies are used only for cell assignment),
and results are returned lexicographically sorted, so every consumer sees
the same floats in the same order as the dense path.  When the radius
exceeds one third of the torus side (fewer than three cells per side, where
the wrap-around stencil would self-overlap) or the point set is tiny, the
index transparently falls back to the dense matrix -- same results, bounded
memory in the regimes that matter.

Also hosted here are the shared helpers: the row-chunk rule
:func:`chunk_rows`, the chunked, label-masked nearest-neighbour search
:func:`masked_nearest` and the CSR builder :func:`adjacency_lists`.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from .torus import batched_pairwise_distances, pairwise_distances, wrap

__all__ = [
    "CellGridIndex",
    "IncrementalCellGridIndex",
    "pair_distances",
    "masked_nearest",
    "adjacency_lists",
    "chunk_rows",
    "CHUNK_ELEMENTS",
]

#: Element budget of one block of the chunked row kernels
#: (:func:`masked_nearest`, scheme B's access vector): 512 KiB of float64,
#: small enough to stay in cache whatever the block's width.
CHUNK_ELEMENTS = 65536

#: Below this point count the dense matrix is both smaller and faster than
#: bucket bookkeeping; the index silently uses it (identical results).
_SMALL_N = 32

_HALF_STENCIL = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))
_FULL_STENCIL = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))


def _cell_ids(wrapped: np.ndarray, m: int) -> np.ndarray:
    """Flattened ``m x m`` cell id of each (already wrapped) point."""
    scaled = np.floor(wrapped * m).astype(np.int64)
    np.clip(scaled, 0, m - 1, out=scaled)
    return scaled[:, 0] * m + scaled[:, 1]


def _build_buckets(cid: np.ndarray, m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR bucket arrays ``(order, start, count)`` over cell ids.

    ``order`` is the stable argsort of ``cid`` -- points sorted by
    ``(cell id, point index)`` -- the canonical ordering both the fresh and
    the incremental index maintain so their query enumerations agree.
    """
    order = np.argsort(cid, kind="stable")
    count = np.bincount(cid, minlength=m * m)
    start = np.zeros(m * m + 1, dtype=np.int64)
    np.cumsum(count, out=start[1:])
    return order, start, count


def pair_distances(
    points: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    others: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Torus distances for explicit index pairs ``(i, j)``.

    Evaluates ``d(points[i], others[j])`` with the same per-axis
    ``dx*dx + dy*dy`` accumulation as
    :func:`~repro.geometry.torus.pairwise_distances`, so the returned floats
    are bit-identical to ``pairwise_distances(points, others)[i, j]``.
    """
    others = points if others is None else others
    dx = points[i, 0] - others[j, 0]
    dx -= np.round(dx)
    dx *= dx
    dy = points[i, 1] - others[j, 1]
    dy -= np.round(dy)
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _empty_pairs() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=float),
    )


def _cartesian(
    a_start: np.ndarray,
    a_count: np.ndarray,
    b_start: np.ndarray,
    b_count: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All cross products of aligned bucket pairs, as sorted-order positions.

    For each bucket pair ``(A_c, B_c)`` every combination of a position in
    ``A_c`` with a position in ``B_c`` is emitted; the ragged products are
    flattened with ``repeat``/``cumsum`` arithmetic so the whole enumeration
    is a handful of vectorized ops.
    """
    t = a_count * b_count
    total = int(t.sum())
    if total == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy()
    block = np.repeat(np.arange(t.size, dtype=np.int64), t)
    offsets = np.zeros(t.size, dtype=np.int64)
    np.cumsum(t[:-1], out=offsets[1:])
    local = np.arange(total, dtype=np.int64) - offsets[block]
    width = b_count[block]
    return a_start[block] + local // width, b_start[block] + local % width


class CellGridIndex:
    """Uniform cell-grid spatial index over points on the unit torus.

    One index wraps one immutable position snapshot (e.g. the advanced
    positions of one slot).  Grids are built lazily per resolution and
    cached, so repeated queries at the same radius -- or different radii
    mapping to the same cell count -- reuse the bucket structure.
    """

    def __init__(self, points: np.ndarray):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"expected (n, 2) positions, got shape {points.shape}")
        self._points = points
        self._wrapped = wrap(points)
        self._grids: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @property
    def points(self) -> np.ndarray:
        """The indexed positions (raw coordinates, not wrapped)."""
        return self._points

    def __len__(self) -> int:
        return self._points.shape[0]

    # ------------------------------------------------------------------
    # grid construction
    # ------------------------------------------------------------------
    def resolution(self, radius: float) -> int:
        """Cells per side for a query ``radius``: the largest ``m`` with
        cell side ``1/m >= radius``, capped near ``sqrt(n)`` so the grid
        never holds more than ``O(n)`` cells."""
        if not radius > 0:
            raise ValueError(f"query radius must be positive, got {radius}")
        m = max(1, int(1.0 / radius))
        while m > 1 and m * radius > 1.0:
            m -= 1
        cap = max(3, math.isqrt(max(len(self), 1)) + 1)
        return min(m, cap)

    def _grid(self, m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        got = self._grids.get(m)
        if got is None:
            got = _build_buckets(_cell_ids(self._wrapped, m), m)
            self._grids[m] = got
        return got

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def pairs_within(
        self, radius: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All unordered index pairs at torus distance ``<= radius``.

        Returns ``(i, j, dist)`` arrays with ``i < j``, sorted
        lexicographically by ``(i, j)`` -- the same order ``np.argwhere``
        yields on the upper triangle of the dense matrix -- and ``dist``
        bit-identical to ``pairwise_distances(points)[i, j]``.
        """
        points = self._points
        n = points.shape[0]
        if n < 2:
            return _empty_pairs()
        m = self.resolution(radius)
        if m < 3 or n <= _SMALL_N:
            distances = pairwise_distances(points)
            i, j = np.nonzero(np.triu(distances <= radius, k=1))
            return i.astype(np.int64), j.astype(np.int64), distances[i, j]
        order, start, count = self._grid(m)
        cells = np.arange(m * m, dtype=np.int64)
        cx, cy = cells // m, cells % m
        chunks = []
        for dx, dy in _HALF_STENCIL:
            if dx == 0 and dy == 0:
                sel = cells[count > 1]
                pa, pb = _cartesian(start[sel], count[sel], start[sel], count[sel])
                keep = pa < pb
                pa, pb = pa[keep], pb[keep]
            else:
                nb = np.mod(cx + dx, m) * m + np.mod(cy + dy, m)
                sel = (count > 0) & (count[nb] > 0)
                pa, pb = _cartesian(
                    start[:-1][sel], count[sel], start[nb[sel]], count[nb[sel]]
                )
            if pa.size:
                chunks.append((order[pa], order[pb]))
        if not chunks:
            return _empty_pairs()
        raw_i = np.concatenate([c[0] for c in chunks])
        raw_j = np.concatenate([c[1] for c in chunks])
        i = np.minimum(raw_i, raw_j)
        j = np.maximum(raw_i, raw_j)
        dist = pair_distances(points, i, j)
        keep = dist <= radius
        i, j, dist = i[keep], j[keep], dist[keep]
        sel = np.lexsort((j, i))
        return i[sel], j[sel], dist[sel]

    def neighbors_of(
        self, queries: np.ndarray, radius: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Indexed points within ``radius`` of each query point.

        Returns ``(qi, pj, dist)`` sorted lexicographically by
        ``(qi, pj)`` -- the order ``np.nonzero`` yields on the dense
        cross matrix -- with ``dist`` bit-identical to
        ``pairwise_distances(queries, points)[qi, pj]``.  Used for
        cross-set queries such as MS -> BS association.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        if queries.ndim != 2 or queries.shape[1] != 2:
            raise ValueError(f"expected (q, 2) queries, got shape {queries.shape}")
        n = self._points.shape[0]
        if n == 0 or queries.shape[0] == 0:
            return _empty_pairs()
        m = self.resolution(radius)
        if m < 3 or n <= _SMALL_N:
            distances = pairwise_distances(queries, self._points)
            qi, pj = np.nonzero(distances <= radius)
            return qi.astype(np.int64), pj.astype(np.int64), distances[qi, pj]
        order, start, count = self._grid(m)
        scaled = np.floor(wrap(queries) * m).astype(np.int64)
        np.clip(scaled, 0, m - 1, out=scaled)
        qcx, qcy = scaled[:, 0], scaled[:, 1]
        chunks = []
        for dx, dy in _FULL_STENCIL:
            nb = np.mod(qcx + dx, m) * m + np.mod(qcy + dy, m)
            cnt = count[nb]
            sel = np.nonzero(cnt > 0)[0]
            if sel.size == 0:
                continue
            t = cnt[sel]
            qi = np.repeat(sel, t)
            offsets = np.zeros(sel.size, dtype=np.int64)
            np.cumsum(t[:-1], out=offsets[1:])
            local = np.arange(int(t.sum()), dtype=np.int64) - np.repeat(offsets, t)
            pb = np.repeat(start[nb[sel]], t) + local
            chunks.append((qi, order[pb]))
        if not chunks:
            return _empty_pairs()
        qi = np.concatenate([c[0] for c in chunks])
        pj = np.concatenate([c[1] for c in chunks])
        dist = pair_distances(queries, qi, pj, others=self._points)
        keep = dist <= radius
        qi, pj, dist = qi[keep], pj[keep], dist[keep]
        sel = np.lexsort((pj, qi))
        return qi[sel], pj[sel], dist[sel]


class IncrementalCellGridIndex(CellGridIndex):
    """A :class:`CellGridIndex` that persists across slots of one trial.

    The paper's restricted mobility (each MS orbits a fixed home-point
    within radius ``Theta(1/f(n))``) means that between consecutive slots
    almost nothing moves far -- yet rebuilding a fresh index costs an
    ``O(n log n)`` argsort plus a full stencil enumeration regardless of
    movement.  This index instead *diffs*: :meth:`update` re-buckets only
    the nodes whose cell changed (an ``O(moved log moved)`` sort merged
    into the bucket order with memcpy-level passes) and repairs each cached
    ``pairs_within`` result by dropping pairs touching a moved node and
    re-enumerating only the moved nodes' 9-cell stencils, so per-slot cost
    scales with *movement* rather than with ``n``.

    Bit-identity contract (the same one :class:`CellGridIndex` honours
    against the dense matrix): after any sequence of updates,
    :meth:`pairs_within` and :meth:`neighbors_of` return exactly the
    arrays a fresh ``CellGridIndex(points)`` would -- same pairs, same
    lexicographic order, same float bits.  This holds because the bucket
    arrays are maintained equal to the stable-argsort canonical form, the
    surviving pair set is exactly the fresh pair set (distances of unmoved
    pairs are pure functions of unchanged coordinates; pairs gaining or
    losing membership necessarily involve a moved node, whose stencil is
    re-enumerated), and distances are always evaluated with the shared
    per-axis kernel of :func:`pair_distances`.
    ``tests/test_incremental_index.py`` drives this with Hypothesis.

    When more than :attr:`REBUILD_FRACTION` of the nodes move in one update
    (e.g. an :class:`~repro.mobility.processes.IIDAroundHome` full redraw),
    the diff would touch everything, so the index transparently falls back
    to a from-scratch rebuild -- identical results, no worse than a fresh
    index.  The dense-fallback regimes (``n <= 32`` or fewer than three
    cells per side) keep delegating to the dense matrix per query, exactly
    like the fresh index.

    Updates mutate internal buffers: construct with (or update to) arrays
    the caller will not mutate afterwards; the ``moved`` mask passed to
    :meth:`update` must cover every row whose value changed (``None``
    diffs the arrays, which is always safe).
    """

    #: Share of moved nodes above which an update rebuilds from scratch
    #: (tests force the diff path with a subclass that sets it to 1).
    REBUILD_FRACTION = 0.5

    def __init__(self, points: np.ndarray):
        # own, writable copy: updates write moved rows in place
        super().__init__(np.array(np.atleast_2d(points), dtype=float))
        self._cids: Dict[int, np.ndarray] = {}
        self._pair_cache: Dict[float, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        #: Counters for benchmarks and tests.
        self.updates = 0
        self.rebuilds = 0
        self.last_moved = 0
        self.last_rebuild = False

    @property
    def points(self) -> np.ndarray:
        """The indexed positions (read-only: updates own the buffer)."""
        view = self._points.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # grid construction / maintenance
    # ------------------------------------------------------------------
    def _grid(self, m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        got = self._grids.get(m)
        if got is None:
            cid = _cell_ids(self._wrapped, m)
            got = _build_buckets(cid, m)
            self._cids[m] = cid
            self._grids[m] = got
        return got

    def _reset(self, new_points: np.ndarray) -> None:
        """From-scratch rebuild: replace the snapshot, drop derived state."""
        self._points = np.array(new_points, dtype=float)
        self._wrapped = wrap(self._points)
        self._grids.clear()
        self._cids.clear()
        self._pair_cache.clear()
        self.rebuilds += 1
        self.last_rebuild = True

    def update(
        self,
        new_points: np.ndarray,
        moved: Optional[np.ndarray] = None,
    ) -> "IncrementalCellGridIndex":
        """Advance the index to the next slot's positions.

        ``moved`` is an optional boolean mask (or integer index array) of
        the nodes that *may* have moved -- a superset is fine, rows outside
        it must be bit-identical to the current snapshot.  ``None`` diffs
        ``new_points`` against the current snapshot (one vectorized
        compare), so callers without a free mask stay safe.
        """
        new_points = np.atleast_2d(np.asarray(new_points, dtype=float))
        if new_points.shape != self._points.shape:
            raise ValueError(
                f"update expects positions of shape {self._points.shape}, "
                f"got {new_points.shape}"
            )
        n = self._points.shape[0]
        if moved is None:
            moved_mask = np.any(new_points != self._points, axis=1)
        else:
            moved = np.asarray(moved)
            if moved.dtype == bool:
                if moved.shape != (n,):
                    raise ValueError(
                        f"moved mask must have shape ({n},), got {moved.shape}"
                    )
                moved_mask = moved
            else:
                moved_mask = np.zeros(n, dtype=bool)
                moved_mask[moved] = True
        moved_idx = np.nonzero(moved_mask)[0]
        self.updates += 1
        self.last_moved = int(moved_idx.size)
        self.last_rebuild = False
        if moved_idx.size == 0:
            return self
        if moved_idx.size > self.REBUILD_FRACTION * n:
            self._reset(new_points)
            return self
        new_rows = new_points[moved_idx]
        wrapped_rows = wrap(new_rows)
        for m in list(self._grids):
            self._update_buckets(m, moved_idx, wrapped_rows)
        self._points[moved_idx] = new_rows
        self._wrapped[moved_idx] = wrapped_rows
        for radius in list(self._pair_cache):
            self._update_pairs(radius, moved_mask, moved_idx)
        return self

    def _update_buckets(
        self, m: int, moved_idx: np.ndarray, wrapped_rows: np.ndarray
    ) -> None:
        """Re-bucket the moved nodes whose cell changed at resolution ``m``.

        Maintains the canonical ``(cell id, node index)`` bucket order by
        deleting the dirty nodes and merge-inserting them at their new
        positions -- no full argsort.
        """
        cid = self._cids[m]
        order, start, count = self._grids[m]
        n = cid.shape[0]
        new_cid_rows = _cell_ids(wrapped_rows, m)
        changed = new_cid_rows != cid[moved_idx]
        if not np.any(changed):
            return
        nodes = moved_idx[changed]
        new_cells = new_cid_rows[changed]
        np.subtract.at(count, cid[nodes], 1)
        np.add.at(count, new_cells, 1)
        cid[nodes] = new_cells
        dirty = np.zeros(n, dtype=bool)
        dirty[nodes] = True
        remaining = order[~dirty[order]]
        insert = nodes[np.lexsort((nodes, new_cells))]
        # composite (cell id, node index) keys: cid < m*m <= n + O(sqrt n)
        # and index < n, so cid * n + index stays far below 2**63 for any
        # simulable n
        positions = np.searchsorted(
            cid[remaining] * n + remaining, cid[insert] * n + insert
        )
        np.cumsum(count, out=start[1:])
        self._grids[m] = (np.insert(remaining, positions, insert), start, count)

    # ------------------------------------------------------------------
    # pair maintenance
    # ------------------------------------------------------------------
    def _update_pairs(
        self, radius: float, moved_mask: np.ndarray, moved_idx: np.ndarray
    ) -> None:
        """Repair one cached ``pairs_within`` result after an update.

        Pairs between two unmoved nodes survive verbatim (their distance is
        a pure function of unchanged coordinates); every pair involving a
        moved node is re-derived from the moved nodes' wrap-around 9-cell
        stencils against the already-updated buckets.
        """
        pair_i, pair_j, pair_d = self._pair_cache[radius]
        keep = ~(moved_mask[pair_i] | moved_mask[pair_j])
        kept_i, kept_j, kept_d = pair_i[keep], pair_j[keep], pair_d[keep]
        m = self.resolution(radius)
        order, start, count = self._grid(m)
        cid = self._cids[m]
        n = cid.shape[0]
        ucx, ucy = cid[moved_idx] // m, cid[moved_idx] % m
        chunks = []
        for dx, dy in _FULL_STENCIL:
            nb = np.mod(ucx + dx, m) * m + np.mod(ucy + dy, m)
            cnt = count[nb]
            sel = np.nonzero(cnt > 0)[0]
            if sel.size == 0:
                continue
            t = cnt[sel]
            qi = np.repeat(moved_idx[sel], t)
            offsets = np.zeros(sel.size, dtype=np.int64)
            np.cumsum(t[:-1], out=offsets[1:])
            local = np.arange(int(t.sum()), dtype=np.int64) - np.repeat(offsets, t)
            pb = np.repeat(start[nb[sel]], t) + local
            chunks.append((qi, order[pb]))
        if chunks:
            raw_u = np.concatenate([c[0] for c in chunks])
            raw_v = np.concatenate([c[1] for c in chunks])
            a = np.minimum(raw_u, raw_v)
            b = np.maximum(raw_u, raw_v)
            # moved-moved pairs are enumerated from both endpoints' stencils;
            # the composite key dedups them (and drops self pairs)
            proper = a != b
            keys = np.unique(a[proper] * n + b[proper])
            a, b = keys // n, keys % n
            dist = pair_distances(self._points, a, b)
            inside = dist <= radius
            a, b, dist = a[inside], b[inside], dist[inside]
        else:
            a, b, dist = _empty_pairs()
        if a.size:
            # both sides are sorted by the (i, j) composite key; merge
            positions = np.searchsorted(kept_i * n + kept_j, a * n + b)
            merged = (
                np.insert(kept_i, positions, a),
                np.insert(kept_j, positions, b),
                np.insert(kept_d, positions, dist),
            )
        else:
            merged = (kept_i, kept_j, kept_d)
        self._pair_cache[radius] = merged

    def pairs_within(
        self, radius: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self._points.shape[0]
        m = self.resolution(radius) if radius > 0 else 0
        if n < 2 or m < 3 or n <= _SMALL_N:
            # dense-fallback regimes carry no incremental state; delegate
            return super().pairs_within(radius)
        entry = self._pair_cache.get(radius)
        if entry is None:
            entry = super().pairs_within(radius)
            self._pair_cache[radius] = entry
        i, j, d = entry
        # consumers own the returned arrays, the cache owns the originals
        return i.copy(), j.copy(), d.copy()


# ----------------------------------------------------------------------
# shared chunked-distance helpers (memory capping in one place)
# ----------------------------------------------------------------------
def chunk_rows(width: int, chunk_size: Optional[int] = None) -> int:
    """Rows per block of a row-chunked kernel whose blocks are ``width``
    columns wide.

    An explicit ``chunk_size`` wins (it must be >= 1); by default a block
    holds about :data:`CHUNK_ELEMENTS` entries, and at least one row.
    Every row of these kernels is reduced on its own, so the chunking
    never changes a result.
    """
    if chunk_size is None:
        return max(1, CHUNK_ELEMENTS // max(1, width))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return chunk_size


def masked_nearest(
    points: np.ndarray,
    others: np.ndarray,
    point_labels: Optional[np.ndarray] = None,
    other_labels: Optional[np.ndarray] = None,
    chunk_size: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest ``others`` index per point, restricted to matching labels.

    Returns ``(nearest, distance)``; where no label-compatible candidate
    exists, ``nearest`` is ``-1`` and ``distance`` is ``inf``.  Rows are
    taken :func:`chunk_rows` at a time, so memory stays bounded (the
    MS -> BS attachment pattern of the cellular routing schemes).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    others = np.atleast_2d(np.asarray(others, dtype=float))
    if (point_labels is None) != (other_labels is None):
        raise ValueError("provide labels for both sides or neither")
    count = points.shape[0]
    nearest = np.full(count, -1, dtype=int)
    distance = np.full(count, np.inf)
    if count == 0 or others.shape[0] == 0:
        return nearest, distance
    if point_labels is not None:
        point_labels = np.asarray(point_labels)
        other_labels = np.asarray(other_labels)
    chunk_size = chunk_rows(others.shape[0], chunk_size)
    for begin in range(0, count, chunk_size):
        rows = slice(begin, min(begin + chunk_size, count))
        block = batched_pairwise_distances(points[rows], others)
        if point_labels is not None:
            mask = point_labels[rows, None] == other_labels[None, :]
            block = np.where(mask, block, np.inf)
        best = block.argmin(axis=1)
        best_distance = block[np.arange(block.shape[0]), best]
        found = np.isfinite(best_distance)
        nearest[rows][found] = best[found]
        distance[rows][found] = best_distance[found]
    return nearest, distance


def adjacency_lists(
    node_count: int, i: np.ndarray, j: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric CSR-style ``(indptr, indices)`` from unordered pair arrays.

    Node ``x``'s neighbors are ``indices[indptr[x]:indptr[x + 1]]``.  Built
    from a :meth:`CellGridIndex.pairs_within` result, this replaces dense
    ``distances[x] < guard`` row masks on the scheduling hot path.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    src = np.concatenate([i, j])
    dst = np.concatenate([j, i])
    order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=node_count)
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst[order]
