"""Golden sweep digests: small sweeps whose digests must never move silently.

A sweep digest hashes every trial value bit for bit, so these pins catch any
change to the science kernels' floats -- summation order included -- not
only to seeding.  The table covers Table I's infrastructure rows under the
scheme each one sweeps: ``optimal`` (scheme A + scheme B) for strong
mobility, scheme B for weak mobility and scheme C for trivial mobility
(generic-MS rates at three seeds, plus one per-node sweep).  The rows
without BSs are pinned too: scheme A for strong mobility and the static
multihop baseline for weak/trivial mobility.

A change that is meant to move a value must update its entry here in the
same change and say why (CHANGES.md), after checking that the fitted
scaling slopes still match ``core.capacity``.
"""

import pytest

from repro.experiments.scaling import sweep_capacity
from repro.experiments.table1 import TABLE1_ROWS

_ROWS = {row.label: row for row in TABLE1_ROWS}

#: (row label, scheme, grid, trials, generic, seed) -> sweep digest
GOLDEN = [
    (("strong mobility, with BSs", "optimal", (500, 1000, 2000), 1, False, 1),
     "b2bb49c00b913b451fea57aa7760067f0662ef226b5f404521ed8a518acefa65"),
    (("strong mobility, with BSs", "optimal", (500, 1000, 2000), 1, False, 2),
     "6f44ba24ae9a407a2072acc1356ecef6836dab19aae071eb49d63d058be1c847"),
    (("strong mobility, with BSs", "optimal", (500, 1000, 2000), 1, False, 3),
     "7ee4c3012d43b32da728d07cb18338bd546959aa0d9df6eb99420b9725fbd96c"),
    (("weak mobility, with BSs", "B", (500, 1000), 2, True, 1),
     "f2735de50bdbf26731b383b08cc569bbe024be8eee294ed43e714d0c62fc4db7"),
    (("trivial mobility, with BSs", "C", (500, 1000), 2, True, 1),
     "29b8eb931d74675302cd0bdfbb53743e4b2d62b550d5f52acfe1a41448e097aa"),
    (("trivial mobility, with BSs", "C", (500, 1000), 2, True, 2),
     "acf03d90efc53d9c673db08926258aa961c149e81986ab1b3dd3eeedec0803db"),
    (("trivial mobility, with BSs", "C", (500, 1000), 2, True, 3),
     "9a645a6f4f53e662bd52c092b33cc4a9074354042afb704ffc12bd31dea091f1"),
    (("trivial mobility, with BSs", "C", (500, 1000), 2, False, 1),
     "5ffec6b67693daf17285bcb5daf7c8d1197c2b637f4de3c2b9408dbd43ec3e65"),
    (("strong mobility, no BSs", "A", (500, 1000), 2, False, 1),
     "8b565529b64e16e311743fe5227518186cddfd1c3d1dafe9b2e162995e928134"),
    (("weak/trivial mobility, no BSs", "static", (300, 600), 2, False, 1),
     "8d49c205380286408488b6bfe9837d18079ab6cd8586b5342214e15f0b70e0a6"),
]


def _sweep_id(sweep):
    label, scheme, _grid, _trials, generic, seed = sweep
    per_node = "-per-node" if scheme in ("B", "C") and not generic else ""
    return f"{label.split()[0]}-{scheme}{per_node}-seed{seed}"



@pytest.mark.parametrize(
    "sweep, digest",
    GOLDEN,
    ids=[_sweep_id(sweep) for sweep, _ in GOLDEN],
)
def test_sweep_digest_is_golden(sweep, digest):
    label, scheme, grid, trials, generic, seed = sweep
    result = sweep_capacity(
        _ROWS[label].parameters, grid, scheme=scheme, trials=trials,
        seed=seed, generic=generic,
    )
    assert result.digest() == digest, f"rates now {list(map(float, result.rates))}"
