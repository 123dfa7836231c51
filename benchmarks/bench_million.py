"""Million-node slot benchmark for the incremental neighbor index.

ROADMAP item 1: per-slot cost must scale with how many nodes *moved*, not
with ``n``.  This benchmark builds one ``n = 10^6`` realisation, pays the
from-scratch first slot (fresh grid + pair enumeration -- exactly what the
seed code paid every slot), then walks a curve of moved-node fractions and
times the incremental slots.  It emits ``BENCH_million.json`` containing:

- the profiled first slot (build + query wall-clock, plus a cProfile
  breakdown of one representative incremental slot);
- the per-slot cost curve vs. fraction moved, each point with its speedup
  over the from-scratch slot;
- a bit-identity spot check at full scale (the incremental pair set after
  the whole walk equals a fresh ``CellGridIndex`` build's);
- provenance (git SHA, host) and the run's grid (``n``, moved fractions,
  slots per fraction).

Run modes:

- ``python benchmarks/bench_million.py`` -- full run at ``n = 10^6``
  (checked-in artifact);
- CI runs ``REPRO_MILLION_N=100000 python -m pytest
  benchmarks/bench_million.py -q -s -m bench`` and gates on the slot-2+
  cost being at least 3x below the first slot in the small-fraction (large
  ``f(n)``) regime.
"""

import cProfile
import io
import json
import os
import platform
import pstats
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from repro.geometry.neighbors import CellGridIndex  # noqa: E402
from repro.store.provenance import collect_provenance  # noqa: E402
from tests.test_incremental_index import DiffOnlyIndex  # noqa: E402

#: Node count; CI overrides to 10^5 to fit the runner's time budget.
N = int(os.environ.get("REPRO_MILLION_N", "1_000_000").replace("_", ""))
#: Moved-node fractions of the cost curve.  The paper's restricted
#: mobility has per-slot displacement ~ 1/f(n): large f(n) is the
#: small-fraction end of this curve.
FRACTIONS = (0.001, 0.01, 0.05, 0.1, 0.3)
#: Incremental slots averaged per fraction.
SLOTS_PER_FRACTION = 3
#: The acceptance gate: at the f-large end of the curve the incremental
#: slots must beat the from-scratch slot by at least this factor.
GATE_FRACTION = 0.01
GATE_SPEEDUP = 3.0

OUTPUT = ROOT / "BENCH_million.json"


def _move(rng, positions, fraction, scale):
    """Jitter ``fraction`` of the nodes by ~``scale``; returns the new
    positions and the moved mask (what ``step_moved`` would report)."""
    n = positions.shape[0]
    count = max(int(round(fraction * n)), 1)
    movers = rng.choice(n, size=count, replace=False)
    new = positions.copy()
    new[movers] = np.mod(
        new[movers] + rng.normal(0.0, scale, (count, 2)), 1.0
    )
    mask = np.zeros(n, dtype=bool)
    mask[movers] = True
    return new, mask


def _profile_slot(index, new, mask, radius):
    """cProfile one incremental slot; returns the top cumulative rows."""
    profiler = cProfile.Profile()
    profiler.enable()
    index.update(new, moved=mask)
    index.pairs_within(radius)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    rows = []
    for func, (_cc, ncalls, _tt, cumtime, _callers) in sorted(
        stats.stats.items(), key=lambda item: -item[1][3]
    )[:10]:
        filename, line, name = func
        rows.append(
            {
                "function": f"{os.path.basename(filename)}:{line}:{name}",
                "calls": ncalls,
                "cumtime_seconds": round(cumtime, 6),
            }
        )
    return rows


def run_bench(n=N):
    rng = np.random.default_rng(1_000_003)
    # guard radius at the Theta(1/sqrt(n)) scheduling scale
    radius = 0.5 / np.sqrt(n)
    positions = rng.random((n, 2))

    # slot 1: what the seed paid every slot -- fresh grid + enumeration;
    # the index never rebuilds afterwards, so every timed slot diffs
    start = time.perf_counter()
    index = DiffOnlyIndex(positions)
    pairs = index.pairs_within(radius)[0].size
    first_slot = time.perf_counter() - start

    curve = []
    for fraction in FRACTIONS:
        slot_seconds = []
        for _ in range(SLOTS_PER_FRACTION):
            new, mask = _move(rng, index.points, fraction, radius)
            start = time.perf_counter()
            index.update(new, moved=mask)
            index.pairs_within(radius)
            slot_seconds.append(time.perf_counter() - start)
        mean_slot = float(np.mean(slot_seconds))
        curve.append(
            {
                "fraction_moved": fraction,
                "moved_nodes": max(int(round(fraction * n)), 1),
                "mean_slot_seconds": mean_slot,
                "speedup_vs_fresh": first_slot / mean_slot,
            }
        )

    new, mask = _move(rng, index.points, GATE_FRACTION, radius)
    profile_rows = _profile_slot(index, new, mask, radius)

    # bit-identity spot check at full scale, after the whole walk
    i, j, d = index.pairs_within(radius)
    fi, fj, fd = CellGridIndex(index.points).pairs_within(radius)
    identical = (
        np.array_equal(i, fi) and np.array_equal(j, fj) and np.array_equal(d, fd)
    )

    return {
        "provenance": {
            **collect_provenance(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "grid": {
            "n": n,
            "fractions": list(FRACTIONS),
            "slots_per_fraction": SLOTS_PER_FRACTION,
        },
        "radius": radius,
        "first_slot_seconds": first_slot,
        "first_slot_pairs": int(pairs),
        "curve": curve,
        "profile_top": profile_rows,
        "updates": index.updates,
        "rebuilds": index.rebuilds,
        "bit_identical_to_fresh": bool(identical),
    }


def _render(result):
    lines = [
        f"n={result['grid']['n']}: first (from-scratch) slot "
        f"{result['first_slot_seconds']:.3f}s, "
        f"{result['first_slot_pairs']} pairs within r={result['radius']:.2e}"
    ]
    for row in result["curve"]:
        lines.append(
            f"  moved {row['fraction_moved'] * 100:5.1f}% "
            f"({row['moved_nodes']:>7} nodes): "
            f"{row['mean_slot_seconds'] * 1e3:8.1f} ms/slot, "
            f"{row['speedup_vs_fresh']:6.1f}x vs fresh"
        )
    lines.append(
        f"  bit-identical to fresh build: {result['bit_identical_to_fresh']}"
    )
    return "\n".join(lines)


def _check_gates(result):
    assert result["bit_identical_to_fresh"], (
        "incremental index diverged from the fresh build at scale"
    )
    assert result["rebuilds"] == 0, (
        "a REBUILD_FRACTION = 1 run must never take the rebuild path"
    )
    by_fraction = {row["fraction_moved"]: row for row in result["curve"]}
    gate = by_fraction[GATE_FRACTION]
    assert gate["speedup_vs_fresh"] >= GATE_SPEEDUP, (
        f"expected slot 2+ at {GATE_FRACTION * 100:.0f}% moved to be "
        f">= {GATE_SPEEDUP}x cheaper than the from-scratch slot, measured "
        f"{gate['speedup_vs_fresh']:.1f}x"
    )


@pytest.mark.bench
@pytest.mark.slow
def test_million_node_slots():
    from conftest import report

    result = run_bench()
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    report("incremental neighbor index: per-slot cost vs fraction moved",
           _render(result))
    _check_gates(result)


if __name__ == "__main__":
    outcome = run_bench()
    OUTPUT.write_text(json.dumps(outcome, indent=2) + "\n")
    print(_render(outcome))
    _check_gates(outcome)
    print(f"wrote {OUTPUT}")
