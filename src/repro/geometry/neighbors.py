"""Torus-aware uniform cell-grid neighbor index.

The paper's optimal policy ``S*`` works at transmission range
``R_T = Theta(1/sqrt(n))`` with a ``(1 + Delta) R_T`` guard zone
(Definition 10), so per slot each node interacts with only ``Theta(1)``
expected neighbors.  Materialising a dense ``n x n``
:func:`~repro.geometry.torus.pairwise_distances` matrix every slot is
therefore ``Theta(n^2)`` work and memory for ``Theta(n)`` useful entries.

:class:`CellGridIndex` replaces the dense matrix for radius-bounded
queries: points are bucketed into a uniform ``m x m`` grid (cell side
``1/m >= radius``, ``m`` capped near ``2 sqrt(n)``) and each point meets
the points of its wrap-around stencil cells -- the 5-cell half stencil for
:meth:`~CellGridIndex.pairs_within` (its own cell only past itself, so
each pair is seen once), all 9 cells for :meth:`~CellGridIndex.neighbors_of`.
The per-resolution stencil table is built once per process, and one
``repeat``/``cumsum`` pass expands every point's stencil slices at once:
no Python loop over cells or offsets.  Expected cost is ``O(n)`` per
query for uniform points.

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
:func:`chunk_rows`, the chunked nearest-neighbour search
:func:`masked_nearest`, which pairs each label's points with that label's
candidates only, and the CSR builder :func:`adjacency_lists`.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Optional, Tuple

import numpy as np

from .torus import batched_pairwise_distances, pairwise_distances, wrap

__all__ = [
    "CellGridIndex",
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

_Grid = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _cell_ids(wrapped: np.ndarray, m: int) -> np.ndarray:
    """Flattened ``m x m`` cell id of each (already wrapped) point."""
    scaled = np.floor(wrapped * m).astype(np.int64)
    np.clip(scaled, 0, m - 1, out=scaled)
    return scaled[:, 0] * m + scaled[:, 1]


def _build_buckets(cid: np.ndarray, m: int) -> _Grid:
    """CSR bucket arrays ``(order, start, count, cell)`` over cell ids.

    ``order`` is the stable argsort of ``cid``: points sorted by
    ``(cell id, point index)``; ``cell`` is the cell id of each point in
    that order.
    """
    # a 16-bit key takes numpy's radix sort: the same stable order, faster
    key = cid.astype(np.uint16) if m * m <= 1 << 16 else cid
    order = np.argsort(key, kind="stable")
    count = np.bincount(cid, minlength=m * m)
    start = np.zeros(m * m + 1, dtype=np.int64)
    np.cumsum(count, out=start[1:])
    return order, start, count, cid[order]


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
    # gathers from 1-D column views are about twice as fast as (i, 0) pairs
    dx = points[:, 0][i] - others[:, 0][j]
    dx -= np.round(dx)
    dx *= dx
    dy = points[:, 1][i] - others[:, 1][j]
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


@functools.cache
def _stencil_table(m: int, offsets: Tuple[Tuple[int, int], ...]) -> np.ndarray:
    """``(m * m, len(offsets))`` table: row ``c`` lists the wrap-around
    neighbours of cell ``c`` of the ``m x m`` torus grid at ``offsets``.

    Built once per resolution and stencil per process; read-only.
    """
    cells = np.arange(m * m, dtype=np.int64)[:, None]
    dx, dy = np.array(offsets, dtype=np.int64).T
    table = np.mod(cells // m + dx, m) * m + np.mod(cells % m + dy, m)
    table.flags.writeable = False
    return table


def _expand(
    owner: np.ndarray, first: np.ndarray, count: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten ``(rows, S)`` bucket slices into ``(owner, position)`` pairs.

    Slice ``(r, s)`` covers the sorted-order positions ``first[r, s]`` up
    to ``first[r, s] + count[r, s] - 1``, each paired with ``owner[r]``;
    they are emitted row-major with one ``repeat``/``cumsum`` pass and no
    Python loop.
    """
    flat = count.ravel()
    ends = np.cumsum(flat)
    position = np.arange(ends[-1], dtype=np.int64)
    position += np.repeat(first.ravel() - ends + flat, flat)
    row_ends = ends[count.shape[1] - 1 :: count.shape[1]]
    return np.repeat(owner, np.diff(row_ends, prepend=0)), position


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
        self._grids: Dict[int, _Grid] = {}

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
        cell side ``1/m >= radius``, capped at ``2 isqrt(n) + 1`` so the
        grid never holds more than ``O(n)`` cells (about ``4n``).  The cap
        leaves ``m`` free to reach ``1/radius`` at the ``S*`` guard radius,
        where a coarser grid would evaluate several times more candidates."""
        if not radius > 0:
            raise ValueError(f"query radius must be positive, got {radius}")
        m = max(1, int(1.0 / radius))
        while m > 1 and m * radius > 1.0:
            m -= 1
        cap = max(3, 2 * math.isqrt(max(len(self), 1)) + 1)
        return min(m, cap)

    def _grid(self, m: int) -> _Grid:
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
        order, start, count, cell = self._grid(m)
        # row s: the point at sorted position s against the points of its
        # half stencil -- its own cell only past s, so each pair is seen once
        nb = np.take(_stencil_table(m, _HALF_STENCIL), cell, axis=0)
        first, width = start[nb], count[nb]
        first[:, 0] = np.arange(1, n + 1)
        width[:, 0] = start[cell + 1] - first[:, 0]
        raw_i, position = _expand(order, first, width)
        raw_j = order[position]
        i = np.minimum(raw_i, raw_j)
        j = np.maximum(raw_i, raw_j)
        dist = pair_distances(points, i, j)
        keep = dist <= radius
        i, j, dist = i[keep], j[keep], dist[keep]
        # the pairs are unique, so one key sort is the (i, j) lexsort
        sel = np.argsort(i * n + j)
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
        order, start, count, _ = self._grid(m)
        nb = np.take(
            _stencil_table(m, _FULL_STENCIL), _cell_ids(wrap(queries), m), axis=0
        )
        qi, position = _expand(
            np.arange(queries.shape[0], dtype=np.int64), start[nb], count[nb]
        )
        pj = order[position]
        dist = pair_distances(queries, qi, pj, others=self._points)
        keep = dist <= radius
        qi, pj, dist = qi[keep], pj[keep], dist[keep]
        sel = np.argsort(qi * n + pj)
        return qi[sel], pj[sel], dist[sel]


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
    exists, ``nearest`` is ``-1`` and ``distance`` is ``inf``.  Each
    label's points meet only that label's ``others``, in ascending index
    order, so ties go to the lowest index exactly as in the argmin of the
    full label-masked distance matrix, at a cost of ``n k / m`` for ``m``
    equal clusters instead of ``n k`` (the MS -> BS attachment of the
    cellular routing schemes).  Rows are taken :func:`chunk_rows` of the
    label's candidate count at a time, so memory stays bounded.
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
    if point_labels is None:
        groups = [(np.arange(count), np.arange(others.shape[0]))]
    else:
        point_labels = np.asarray(point_labels)
        other_labels = np.asarray(other_labels)
        groups = (
            (np.nonzero(point_labels == label)[0], np.nonzero(other_labels == label)[0])
            for label in np.unique(other_labels)
        )
    for rows, cols in groups:
        candidates = others[cols]
        step = chunk_rows(cols.size, chunk_size)
        for begin in range(0, rows.size, step):
            block = rows[begin : begin + step]
            distances = batched_pairwise_distances(points[block], candidates)
            best = distances.argmin(axis=1)
            nearest[block] = cols[best]
            distance[block] = distances[np.arange(block.size), best]
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
