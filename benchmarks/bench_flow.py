"""Flow-kernel benchmark: scheme A's flow analysis, scheme B's access vector
and scheme C's attach search, Phase II and cell colouring, each against its
reference, bit for bit.

- **Scheme A flow** (Definition 11 / Lemma 5): :meth:`SchemeA.sustainable_rate`
  (per-cell blocks and array route accounting) against the per-session loop
  it replaced (``LoopOracle`` in ``tests/test_scheme_a_vector.py``), on
  realisations of Table I's strong-mobility-with-BSs row -- the scheme-A
  half of an ``optimal`` trial.
- **Contact kernel** (eq. (6)): :meth:`MobilityShape.contact_kernel`, a
  direct lookup on the evenly spaced knots of the kernel table, against
  ``np.interp``'s binary search on the same table, over every separation
  block ``f * d_h`` that scheme A's flow analysis evaluates (each
  squarelet's own, east and north blocks) on the strong realisations.
- **Scheme B access** (Lemma 9): :meth:`SchemeB.zone_access_vector`, whose
  blocks meet only the in-zone BSs within the mobility reach ``D/f`` in
  ``x``, against Definition 12 read literally -- the full ``n x k``
  Corollary-1 matrix, zone-masked and row-summed (``masked_matrix_oracle``
  in ``tests/test_scheme_b_vector.py``) -- on the same strong realisations
  and on realisations of the weak-mobility-with-BSs row (the row
  perfbench's ``infra`` workload sweeps).
- **Scheme C attach**: :func:`~repro.geometry.neighbors.masked_nearest`,
  which pairs each cluster's MSs with that cluster's BSs only, against the
  full-width label-masked search it replaced (``full_width_masked_nearest``
  in ``tests/test_neighbors.py``), on realisations of the
  trivial-mobility-with-BSs row.
- **Scheme C Phase II** (Definition 13 / Theorem 9):
  :meth:`SchemeC.sustainable_rate` on the full-mesh :class:`Backbone`, which
  reads wire loads per BS class, against the same scheme on the per-wire
  dict loop it replaced (``WireLoopOracle`` in
  ``tests/test_backbone_loads.py``), on the trivial-mobility realisations.
- **Scheme C colouring**: the CSR greedy colouring of the cell-interference
  graph against networkx's ``greedy_color(strategy="largest_first")``.

Each kernel and its reference run ``REPEATS`` times, alternating; the
artifact records each side's median and quartiles, and a speedup is the
ratio of the two medians.  Each pair must return bit-equal output at
every ``n``.  The gate: at the smallest ``n`` of the grid, scheme A's flow
must be at least ``GATE_SPEEDUP``x faster than the loop, and scheme B's
access vector at least ``GATE_SPEEDUP``x faster than the masked matrix on
both the strong and the weak row, median against median.  The contact kernel is timed but not gated: at
``n = 2000`` its blocks are about 25 x 25, where the lookup and the binary
search are close.  The run writes ``BENCH_flow.json`` with provenance (git
SHA, host, grid).  At ``n = 16000`` the strong row's masked matrix holds
about 0.6 GB of float64, and the oracle briefly keeps a few such arrays.

Run modes:

- ``PYTHONPATH=src python benchmarks/bench_flow.py`` -- full grid
  (checked-in artifact);
- CI runs ``REPRO_FLOW_GRID=2000 python -m pytest benchmarks/bench_flow.py
  -q -s -m bench`` (same gates at ``n = 2000``).
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from repro.experiments.table1 import TABLE1_ROWS  # noqa: E402
from repro.geometry.neighbors import masked_nearest  # noqa: E402
from repro.geometry.torus import pairwise_distances  # noqa: E402
from repro.mobility.shapes import _kernel_table  # noqa: E402
from repro.routing.scheme_b import SchemeB  # noqa: E402
from repro.routing.scheme_c import SchemeC  # noqa: E402
from repro.simulation.network import HybridNetwork  # noqa: E402
from repro.store import TrialSeed  # noqa: E402
from repro.store.provenance import collect_provenance  # noqa: E402
from tests.test_backbone_loads import WireLoopOracle, networkx_colours  # noqa: E402
from tests.test_neighbors import full_width_masked_nearest  # noqa: E402
from tests.test_scheme_a_vector import LoopOracle  # noqa: E402
from tests.test_scheme_b_vector import masked_matrix_oracle  # noqa: E402

#: Node counts.
N_VALUES = tuple(
    int(value)
    for value in os.environ.get("REPRO_FLOW_GRID", "2000,4000,8000,16000").split(",")
)
#: Timed runs of each kernel and of its reference, alternating, per point.
REPEATS = 5
#: The speedup gate of the kernels in ``GATED``, applied at the smallest n
#: of the grid.
GATE_SPEEDUP = 2.0
SEED = 1

_ROWS = {row.label: row for row in TABLE1_ROWS}
STRONG = _ROWS["strong mobility, with BSs"]
WEAK = _ROWS["weak mobility, with BSs"]
TRIVIAL = _ROWS["trivial mobility, with BSs"]

OUTPUT = ROOT / "BENCH_flow.json"


def _timed(call):
    """Wall clock of one ``call()``; returns (seconds, result)."""
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def _pair(fast, reference, equal):
    """Time ``fast`` and ``reference`` ``REPEATS`` times each, alternating,
    so a host speed phase falls on both alike.  Each side reports the
    median and its quartiles, and the speedup is the ratio of the medians."""
    fast_times, reference_times = [], []
    for _ in range(REPEATS):
        seconds, fast_result = _timed(fast)
        fast_times.append(seconds)
        seconds, reference_result = _timed(reference)
        reference_times.append(seconds)
    q1, median, q3 = np.percentile(fast_times, [25, 50, 75])
    ref_q1, ref_median, ref_q3 = np.percentile(reference_times, [25, 50, 75])
    return {
        "seconds": float(median),
        "seconds_quartiles": [float(q1), float(q3)],
        "reference_seconds": float(ref_median),
        "reference_seconds_quartiles": [float(ref_q1), float(ref_q3)],
        "speedup": float(ref_median / median),
        "bit_equal": bool(equal(fast_result, reference_result)),
    }


def _same_flow(got, want):
    return (
        got.per_node_rate == want.per_node_rate
        and got.bottleneck == want.bottleneck
        and got.details == want.details
    )


def _same_arrays(got, want):
    return all(np.array_equal(a, b) for a, b in zip(got, want))


def _same_bits(got, want):
    return len(got) == len(want) and all(
        np.array_equal(a.view(np.int64), b.view(np.int64)) for a, b in zip(got, want)
    )


def _kernel_blocks(scheme):
    """Every separation block ``f * d_h`` that scheme A's flow analysis hands
    the contact kernel: each squarelet's own block and those of its east
    and north neighbours."""
    tess = scheme.tessellation
    side = tess.cells_per_side
    blocks = []
    for cell in range(tess.cell_count):
        rows = scheme.relay_candidates(cell)
        if rows.size == 0:
            continue
        row, col = divmod(cell, side)
        others = [cell]
        if side > 1:
            others += [tess.flat_index(row, col + 1), tess.flat_index(row + 1, col)]
        for other in others:
            cols = scheme.relay_candidates(other)
            if cols.size:
                distances = pairwise_distances(scheme._home[rows], scheme._home[cols])
                blocks.append(scheme._f * distances)
    return blocks


def _kernel_pair(net):
    """The contact-kernel lookup against ``np.interp`` on scheme A's blocks."""
    shape = net.shape
    knots, values = _kernel_table(shape)
    blocks = _kernel_blocks(net.scheme_a())
    return _pair(
        lambda: [shape.contact_kernel(block) for block in blocks],
        lambda: [np.interp(block, knots, values, right=0.0) for block in blocks],
        _same_bits,
    )


_B_REFERENCE = (
    "zone-masked row sum of the full n x k Corollary-1 matrix "
    "(tests/test_scheme_b_vector.py masked_matrix_oracle)"
)


def _access_pair(net):
    """Scheme B's access vector on ``net`` against the masked matrix."""
    ms_zone, bs_zone = net.scheme_b_zones()
    args = (
        net.home_model.points, net.bs_positions, ms_zone, bs_zone,
        net.shape, net.realized.f, net.access_transmission_range(),
    )
    return _pair(
        lambda: SchemeB.zone_access_vector(*args),
        lambda: masked_matrix_oracle(*args),
        np.array_equal,
    )


def run_point(n):
    strong = HybridNetwork.build(STRONG.parameters, n, TrialSeed(SEED, 0).rng())
    traffic = strong.sample_traffic()
    scheme_a = _pair(
        lambda: strong.scheme_a().sustainable_rate(traffic),
        lambda: LoopOracle(strong.scheme_a()).sustainable_rate(traffic),
        _same_flow,
    )
    kernel = _kernel_pair(strong)
    scheme_b = _access_pair(strong)
    weak = HybridNetwork.build(WEAK.parameters, n, TrialSeed(SEED, 0).rng())
    scheme_b_weak = _access_pair(weak)
    trivial = HybridNetwork.build(TRIVIAL.parameters, n, TrialSeed(SEED, 0).rng())
    attach_args = (
        trivial.process.positions(), trivial.bs_positions,
        trivial.home_model.assignment, trivial._bs_cluster_assignment(),
    )
    scheme_c = _pair(
        lambda: masked_nearest(*attach_args),
        lambda: full_width_masked_nearest(*attach_args),
        _same_arrays,
    )
    scheme_c_blocks = trivial.scheme_c()
    scheme_c_loop = SchemeC(
        *attach_args,
        backbone=WireLoopOracle(trivial.backbone.bs_count, trivial.backbone.edge_capacity),
        delta=trivial.delta,
    )
    trivial_traffic = trivial.sample_traffic()
    phase_two = _pair(
        lambda: scheme_c_blocks.sustainable_rate(trivial_traffic),
        lambda: scheme_c_loop.sustainable_rate(trivial_traffic),
        _same_flow,
    )
    colouring = _pair(
        scheme_c_blocks._color_cells,
        lambda: networkx_colours(scheme_c_blocks),
        np.array_equal,
    )
    return {
        "n": n,
        "scheme_a_cells_per_side": strong.scheme_a().tessellation.cells_per_side,
        "strong_bs_count": int(strong.bs_positions.shape[0]),
        "weak_bs_count": int(weak.bs_positions.shape[0]),
        "trivial_bs_count": int(trivial.bs_positions.shape[0]),
        "scheme_a_flow": scheme_a,
        "contact_kernel": kernel,
        "scheme_b_access": scheme_b,
        "scheme_b_access_weak": scheme_b_weak,
        "scheme_c_attach": scheme_c,
        "scheme_c_phase2": phase_two,
        "scheme_c_colouring": colouring,
    }


def run_bench():
    return {
        "provenance": {
            **collect_provenance(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "families": {
            "scheme_a_flow": STRONG.label,
            "contact_kernel": STRONG.label,
            "scheme_b_access": STRONG.label,
            "scheme_b_access_weak": WEAK.label,
            "scheme_c_attach": TRIVIAL.label,
            "scheme_c_phase2": TRIVIAL.label,
            "scheme_c_colouring": TRIVIAL.label,
        },
        "references": {
            "scheme_a_flow": "per-session loop (tests/test_scheme_a_vector.py LoopOracle)",
            "contact_kernel": "binary search: np.interp on the same kernel table, right=0",
            "scheme_b_access": _B_REFERENCE,
            "scheme_b_access_weak": _B_REFERENCE,
            "scheme_c_attach": "full-width label-masked search "
            "(tests/test_neighbors.py full_width_masked_nearest)",
            "scheme_c_phase2": "per-wire dict loop (tests/test_backbone_loads.py WireLoopOracle)",
            "scheme_c_colouring": 'networkx greedy_color(strategy="largest_first")',
        },
        "grid": list(N_VALUES),
        "seed": SEED,
        "repeats": REPEATS,
        "gate_speedup": GATE_SPEEDUP,
        "gated": list(GATED),
        "points": [run_point(n) for n in N_VALUES],
    }


_KERNELS = (
    "scheme_a_flow",
    "contact_kernel",
    "scheme_b_access",
    "scheme_b_access_weak",
    "scheme_c_attach",
    "scheme_c_phase2",
    "scheme_c_colouring",
)
#: The kernels held to ``GATE_SPEEDUP``.
GATED = ("scheme_a_flow", "scheme_b_access", "scheme_b_access_weak")


def _render(result):
    lines = []
    for row in result["points"]:
        cells = []
        for kernel in _KERNELS:
            entry = row[kernel]
            q1, q3 = entry["seconds_quartiles"]
            cells.append(
                f"{kernel} {entry['seconds'] * 1e3:7.1f} ms "
                f"[{q1 * 1e3:.1f}-{q3 * 1e3:.1f}] "
                f"({entry['speedup']:4.1f}x, "
                + ("bit-equal" if entry["bit_equal"] else "DIVERGED")
                + ")"
            )
        lines.append(f"n={row['n']:>6}: " + "; ".join(cells))
    return "\n".join(lines)


def _check_gates(result):
    for row in result["points"]:
        for kernel in _KERNELS:
            assert row[kernel]["bit_equal"], (
                f"{kernel} diverged from its reference at n={row['n']} -- "
                "bit-identity is the contract"
            )
    smallest = min(result["points"], key=lambda row: row["n"])
    for kernel in GATED:
        speedup = smallest[kernel]["speedup"]
        assert speedup >= GATE_SPEEDUP, (
            f"expected {kernel} >= {GATE_SPEEDUP}x {result['references'][kernel]} "
            f"at n={smallest['n']}, measured {speedup:.2f}x (median against median)"
        )


@pytest.mark.bench
@pytest.mark.slow
def test_flow_kernels():
    from conftest import report

    result = run_bench()
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    report("flow kernels vs their references", _render(result))
    _check_gates(result)


if __name__ == "__main__":
    outcome = run_bench()
    OUTPUT.write_text(json.dumps(outcome, indent=2) + "\n")
    print(_render(outcome))
    _check_gates(outcome)
