"""Cell-grid neighbor index scaling benchmark.

``PolicySStar.schedule`` is the per-slot hot path of every mobile sweep.
The dense formulation it replaced rebuilds an ``n x n`` torus distance
matrix per slot (``O(n^2)`` time and memory; kept as the
``strict_pairs_vectorized`` oracle in
``tests/test_scheduler_equivalence.py``); the cell-grid index enumerates
only the ``Theta(1)``-per-node guard-radius candidates (``O(n)``
expected).  This benchmark times both at ``n in {1k, 4k, 16k}``, asserts
the schedules stay bit-identical, writes ``BENCH_neighbors.json`` (slots/s
per path, peak candidate counts, provenance: git SHA, host, grid) for the
CI artifact, and enforces the acceptance bars:

- the sparse path must not be slower than dense at ``n = 4000``;
- the sparse path must be ``>= 5x`` faster at ``n = 16000``.

The dense side at ``n = 16000`` needs ~6 GB for its distance temporaries.
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from repro.geometry.neighbors import CellGridIndex  # noqa: E402
from repro.geometry.torus import pairwise_distances  # noqa: E402
from repro.store.provenance import collect_provenance  # noqa: E402
from repro.wireless.scheduler import PolicySStar  # noqa: E402
from tests.test_scheduler_equivalence import strict_pairs_vectorized  # noqa: E402

from conftest import report  # noqa: E402

#: (n, sparse slots, dense slots) -- fewer dense slots at large n keeps the
#: O(n^2) side tractable; the sparse side is cheap enough to average more.
GRID = ((1_000, 16, 8), (4_000, 8, 4), (16_000, 4, 1))
#: c_T = 0.5 keeps the expected guard-disk occupancy pi (2 c_T)^2 ~ 3, so a
#: realistic fraction of candidate pairs actually gets enabled.
C_T = 0.5
DELTA = 1.0

OUTPUT = ROOT / "BENCH_neighbors.json"


def _slot_positions(n, slots):
    rng = np.random.default_rng(1234 + n)
    return [rng.random((n, 2)) for _ in range(slots)]


def _bench_size(n, sparse_slots, dense_slots):
    """Time sparse vs dense scheduling over fresh per-slot realisations."""
    policy = PolicySStar(n, c_t=C_T, delta=DELTA)
    positions = _slot_positions(n, sparse_slots)

    start = time.perf_counter()
    sparse_schedules = [policy.schedule(p) for p in positions]
    sparse_elapsed = time.perf_counter() - start

    radius = policy.transmission_range()
    start = time.perf_counter()
    dense_pairs = [
        strict_pairs_vectorized(pairwise_distances(p), radius, DELTA)
        for p in positions[:dense_slots]
    ]
    dense_elapsed = time.perf_counter() - start

    for fast, slow in zip(sparse_schedules, dense_pairs):
        assert fast.pairs == tuple(slow)  # bit-identical schedules

    guard = (1.0 + DELTA) * radius
    candidates = int(CellGridIndex(positions[0]).pairs_within(guard)[0].size)
    sparse_rate = sparse_slots / sparse_elapsed
    dense_rate = dense_slots / dense_elapsed
    return {
        "n": n,
        "sparse_slots": sparse_slots,
        "dense_slots": dense_slots,
        "enabled_pairs": len(sparse_schedules[0]),
        "sparse_candidates": candidates,
        "sparse_slots_per_s": sparse_rate,
        "dense_slots_per_s": dense_rate,
        "speedup": sparse_rate / dense_rate,
    }


def test_neighbor_index_scaling(once):
    rows = once(
        lambda: [_bench_size(n, sparse, dense) for n, sparse, dense in GRID]
    )
    result = {
        "provenance": {
            **collect_provenance(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "dense_reference": (
            "strict_pairs_vectorized on pairwise_distances "
            "(tests/test_scheduler_equivalence.py)"
        ),
        "grid": [list(point) for point in GRID],
        "c_t": C_T,
        "delta": DELTA,
        "results": rows,
    }
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    lines = [
        f"n={row['n']:>6}: sparse {row['sparse_slots_per_s']:8.1f} slots/s, "
        f"dense {row['dense_slots_per_s']:8.1f} slots/s, "
        f"speedup {row['speedup']:6.1f}x "
        f"({row['sparse_candidates']} candidates, "
        f"{row['enabled_pairs']} enabled)"
        for row in rows
    ]
    report("cell-grid neighbor index scaling", "\n".join(lines))
    by_n = {row["n"]: row for row in rows}
    assert by_n[4_000]["speedup"] >= 1.0, "sparse path slower than dense at n=4k"
    assert by_n[16_000]["speedup"] >= 5.0, (
        f"expected >= 5x at n=16k, measured {by_n[16_000]['speedup']:.1f}x"
    )
