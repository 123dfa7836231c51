"""Speedup benchmark: vectorized schedulers + TrialRunner vs the seed path.

The seed implementation ran Monte-Carlo trials serially and evaluated the
scheduler guard-zone checks with Python-level loops (kept verbatim as the
``greedy_reference`` oracle in ``tests/test_scheduler_equivalence.py``).
This benchmark drives a Figure-1-sized slot-level sweep both ways and
reports the wall-clock ratio:

- **seed path**: the loop oracle on the seed's distance kernel, trials run
  inline;
- **new path**: vectorized schedulers, trials fanned out by
  :class:`repro.parallel.TrialRunner` with ``--workers 4``.

On a multi-core machine the pool multiplies the vectorization gain by
roughly ``min(workers, cores)``; on a single core the vectorized hot path
alone must clear the 2x acceptance bar.  Aggregate results are asserted
bit-identical between both paths and at every worker count.
"""

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from repro.geometry.torus import random_points  # noqa: E402
from repro.mobility.processes import IIDAroundHome  # noqa: E402
from repro.mobility.shapes import UniformDiskShape  # noqa: E402
from repro.parallel import TrialRunner  # noqa: E402
from repro.store import TrialSeed  # noqa: E402
from repro.wireless.link_capacity import measure_activity_fraction  # noqa: E402
from repro.wireless.scheduler import GreedyMatchingScheduler  # noqa: E402
from tests.test_scheduler_equivalence import greedy_reference  # noqa: E402

from conftest import report  # noqa: E402

#: Figure-1 panel size (matches benchmarks/test_figure1.py).
N = 2000
SLOTS = 8
TRIALS = 4
RANGE = 1.5 / np.sqrt(N)


def _seed_pairwise_distances(points):
    """The seed's distance kernel: broadcast displacement tensor + einsum.

    Kept verbatim here so the benchmark's baseline really is the seed hot
    path (the package kernel has since moved to the faster -- bit-identical
    -- per-axis evaluation).
    """
    delta = points[:, None, :] - points[None, :, :]
    delta -= np.round(delta)
    return np.sqrt(np.einsum("ijk,ijk->ij", delta, delta))


def _activity_trial(payload):
    """Slot-level activity sweep of one network realisation."""
    n, slots, seed_path, seed = payload
    rng = seed.rng()
    home = random_points(rng, n)
    process = IIDAroundHome(home, UniformDiskShape(1.0), 0.05, rng)
    if not seed_path:
        scheduler = GreedyMatchingScheduler(RANGE, delta=1.0)
        return measure_activity_fraction(process, scheduler, slots)
    # Seed path: einsum distances + loop feasibility scans, slot by slot.
    active = np.zeros(n, dtype=int)
    for _ in range(slots):
        positions = process.step()
        distances = _seed_pairwise_distances(positions)
        pairs = greedy_reference(distances, RANGE, delta=1.0)
        for node in {node for pair in pairs for node in pair}:
            active[node] += 1
    return active / slots


def _run(workers, seed_path):
    runner = TrialRunner(_activity_trial, workers=workers)
    start = time.perf_counter()
    payloads = [(N, SLOTS, seed_path, TrialSeed(42, i)) for i in range(TRIALS)]
    values = runner.run_values(payloads)
    return np.mean([v.mean() for v in values]), time.perf_counter() - start


def test_parallel_sweep_speedup(once):
    """New path must be >= 2x faster than the seed path, results identical."""

    def measure():
        seed_mean, seed_elapsed = _run(None, seed_path=True)
        new_mean, new_elapsed = _run(4, seed_path=False)
        inline_mean, _ = _run(None, seed_path=False)
        return seed_mean, seed_elapsed, new_mean, new_elapsed, inline_mean

    seed_mean, seed_elapsed, new_mean, new_elapsed, inline_mean = once(measure)
    speedup = seed_elapsed / new_elapsed
    report(
        "parallel sweep speedup",
        f"n={N} slots={SLOTS} trials={TRIALS}\n"
        f"seed path (reference loops, inline): {seed_elapsed:6.2f}s\n"
        f"new path  (vectorized, workers=4)  : {new_elapsed:6.2f}s\n"
        f"speedup: {speedup:.1f}x",
    )
    # Bit-identical aggregates: vectorized == loop oracle, pool == inline.
    assert new_mean == seed_mean == inline_mean
    assert speedup >= 2.0
