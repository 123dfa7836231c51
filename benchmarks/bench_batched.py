"""Scheme B access-kernel benchmark, plus the batched-sweep digest check.

Scheme B's Phase I access capacity ``mu_i^A`` sums only over the BSs of
the MS's own zone (Definition 12).  :meth:`SchemeB.zone_access_vector`
evaluates just those in-zone pairs (zone-blocking); the literal reading
of the definition -- the full ``n x k`` :meth:`SchemeB.access_matrix`,
zone-masked and row-summed -- is the oracle it must match.  This
benchmark times both on realisations of the strong-mobility scheme-B
family at ``n = 1000`` and ``n = 4000``, and times ``sweep_capacity``
with and without ``batch_trials`` on the same family.  It writes
``BENCH_batched.json`` with provenance (git SHA, host, grid).

Gates:

- **kernel speedup**: at the largest ``n`` the zone-blocked kernel must
  be at least ``GATE_SPEEDUP``x faster than the masked-matrix oracle;
- **kernel bit-identity**: both must return bit-equal vectors at every
  ``n`` -- the speedup is worthless if the numbers move;
- **sweep bit-identity**: per-trial and batched sweeps must produce the
  *same digest* at every ``n``.  Both run the same per-trial kernels, so
  their trials/s are reported but not gated.

Run modes:

- ``python benchmarks/bench_batched.py`` -- full run (checked-in artifact);
- CI runs ``REPRO_BATCHED_TRIALS=8 python -m pytest
  benchmarks/bench_batched.py -q -s -m bench`` (reduced trial count, same
  gates).
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.regimes import NetworkParameters
from repro.experiments.scaling import sweep_capacity
from repro.routing.scheme_b import SchemeB
from repro.simulation.network import HybridNetwork
from repro.store import TrialSeed
from repro.store.provenance import collect_provenance

#: Sweep grid.
N_VALUES = tuple(
    int(value)
    for value in os.environ.get("REPRO_BATCHED_GRID", "1000,4000").split(",")
)
#: Realisations (and sweep trials) per n, also the batch width; CI uses 8.
TRIALS = int(os.environ.get("REPRO_BATCHED_TRIALS", "16"))
#: Timing repetitions per configuration (best-of, to shed scheduler noise).
REPEATS = 3
#: The kernel-speedup gate, applied at the largest n of the grid.
GATE_SPEEDUP = 2.0
SEED = 42

#: The strong-mobility family of Figure 2; ``generic=True`` because the
#: uniform (min-MS) scheme-B rate is 0.0 at these n (documented in
#: EXPERIMENTS.md) which would make the flow phase trivially cheap.
FAMILY = NetworkParameters(
    alpha="1/4", cluster_exponent=1, bs_exponent="1/2", backbone_exponent=1
)

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_batched.json"


def _best_of(call):
    """Best-of-``REPEATS`` wall clock of ``call()``; returns (seconds, result)."""
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result


def masked_matrix_access(ms_home, bs_positions, ms_zone, bs_zone, shape, f, radius):
    """The oracle: every ``(MS, BS)`` pair, then the zone mask and row sum."""
    matrix = SchemeB.access_matrix(ms_home, bs_positions, shape, f, radius)
    return np.where(ms_zone[:, None] == bs_zone[None, :], matrix, 0.0).sum(axis=1)


def _access_inputs(n):
    """``zone_access_vector`` arguments of ``TRIALS`` sweep realisations."""
    inputs = []
    for trial in range(TRIALS):
        net = HybridNetwork.build(FAMILY, n, TrialSeed(SEED, trial).rng())
        ms_zone, bs_zone = net.scheme_b_zones()
        inputs.append(
            (
                net.home_model.points,
                net.bs_positions,
                ms_zone,
                bs_zone,
                net.shape,
                net.realized.f,
                net.access_transmission_range(),
            )
        )
    return inputs


def _time_sweep(n, **kwargs):
    return _best_of(
        lambda: sweep_capacity(
            FAMILY, [n], scheme="B", trials=TRIALS, seed=SEED, generic=True, **kwargs
        ).digest()
    )


def run_bench():
    points = []
    for n in N_VALUES:
        inputs = _access_inputs(n)
        kernel_seconds, kernel = _best_of(
            lambda: [SchemeB.zone_access_vector(*args) for args in inputs]
        )
        oracle_seconds, oracle = _best_of(
            lambda: [masked_matrix_access(*args) for args in inputs]
        )
        serial_seconds, serial_digest = _time_sweep(n)
        batched_seconds, batched_digest = _time_sweep(n, batch_trials=TRIALS)
        points.append(
            {
                "n": n,
                "trials": TRIALS,
                "bs_count": int(inputs[0][1].shape[0]),
                "zones": int(np.unique(inputs[0][3]).size),
                "oracle_seconds": oracle_seconds,
                "kernel_seconds": kernel_seconds,
                "kernel_speedup": oracle_seconds / kernel_seconds,
                "kernel_bit_equal": all(
                    np.array_equal(got, want) for got, want in zip(kernel, oracle)
                ),
                "serial_trials_per_second": TRIALS / serial_seconds,
                "batched_trials_per_second": TRIALS / batched_seconds,
                "digest_identical": serial_digest == batched_digest,
                "digest": serial_digest,
            }
        )
    return {
        "provenance": {
            **collect_provenance(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "family": "alpha=1/4, clusters=n, bs=sqrt(n) (strong mobility)",
        "scheme": "B",
        "generic": True,
        "grid": list(N_VALUES),
        "seed": SEED,
        "batch_trials": TRIALS,
        "repeats": REPEATS,
        "gate_speedup": GATE_SPEEDUP,
        "points": points,
    }


def _render(result):
    lines = []
    for row in result["points"]:
        lines.append(
            f"n={row['n']:>5}: access kernel {row['kernel_speedup']:4.2f}x the "
            "masked matrix ("
            + ("bit-equal" if row["kernel_bit_equal"] else "DIVERGED")
            + f"); sweep {row['serial_trials_per_second']:7.1f} trials/s per "
            f"trial, {row['batched_trials_per_second']:7.1f} batched, digest "
            + ("identical" if row["digest_identical"] else "DIVERGED")
        )
    return "\n".join(lines)


def _check_gates(result):
    for row in result["points"]:
        assert row["kernel_bit_equal"], (
            f"zone_access_vector diverged from the masked access_matrix at "
            f"n={row['n']} -- bit-identity is the contract"
        )
        assert row["digest_identical"], (
            f"batched sweep diverged from per-trial at n={row['n']}"
        )
    largest = max(result["points"], key=lambda row: row["n"])
    assert largest["kernel_speedup"] >= GATE_SPEEDUP, (
        f"expected zone_access_vector >= {GATE_SPEEDUP}x the masked "
        f"access_matrix at n={largest['n']}, measured "
        f"{largest['kernel_speedup']:.2f}x"
    )


@pytest.mark.bench
@pytest.mark.slow
def test_batched_sweep_throughput():
    from conftest import report

    result = run_bench()
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    report("scheme B access kernel vs masked matrix; sweep digests", _render(result))
    _check_gates(result)


if __name__ == "__main__":
    outcome = run_bench()
    OUTPUT.write_text(json.dumps(outcome, indent=2) + "\n")
    print(_render(outcome))
    _check_gates(outcome)
