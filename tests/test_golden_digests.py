"""Golden sweep digests: small sweeps whose digests must never move silently.

A sweep digest hashes every trial value bit for bit, so these pins catch any
change to the science kernels' floats -- summation order included -- not
only to seeding.  The table covers Table I's infrastructure rows under the
scheme each one sweeps: ``optimal`` (scheme A + scheme B) for strong
mobility, scheme B for weak mobility and scheme C for trivial mobility
(generic-MS rates at three seeds, plus one per-node sweep).  The rows
without BSs are pinned too: scheme A for strong mobility and the static
multihop baseline for weak/trivial mobility.  The scheme B and C entries
must give the same digests through the batched path (``batch_trials=2``).

The backbone-provisioning ablation behind Finding 1 is pinned as well:
scheme B on Remark 10's family at ``phi = -1/2, 0, 1``.  Its science is
asserted alongside the digests: the infrastructure term
``min{k^2 c/n, k/n}`` saturates at ``phi = 0``, so ``phi = 1`` buys
bit-for-bit the same rates, and a starved backbone (``phi = -1/2``) is
strictly slower at every ``n``.

A change that is meant to move a value must update its entry here in the
same change and say why (CHANGES.md), after checking that the fitted
scaling slopes still match ``core.capacity``.
"""

import pytest

from repro.core.regimes import NetworkParameters
from repro.experiments.scaling import sweep_capacity
from repro.experiments.table1 import TABLE1_ROWS
from repro.mobility.shapes import UniformDiskShape

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


#: Every entry per trial, and the scheme B and C entries batched too.
_CASES = [
    pytest.param(sweep, digest, batch_trials, id=_sweep_id(sweep) + suffix)
    for sweep, digest in GOLDEN
    for batch_trials, suffix in ((None, ""), (2, "-batch2"))
    if batch_trials is None or sweep[1] in ("B", "C")
]


@pytest.mark.parametrize("sweep, digest, batch_trials", _CASES)
def test_sweep_digest_is_golden(sweep, digest, batch_trials):
    label, scheme, grid, trials, generic, seed = sweep
    result = sweep_capacity(
        _ROWS[label].parameters, grid, scheme=scheme, trials=trials,
        seed=seed, generic=generic, batch_trials=batch_trials,
    )
    assert result.digest() == digest, f"rates now {list(map(float, result.rates))}"


#: Remark 10's family with the wide access disk of the phi ablation.
PHI_BUILD = {"shape": UniformDiskShape(2.0)}

#: phi -> digest of the per-node scheme B sweep at n = 500, 1000
#: (2 trials, seed 1).
PHI_GOLDEN = {
    "-1/2": "dbb937fc0979dbf17eb95838281e3ef76dab50be669696d57101f6deed5203d8",
    "0": "024cc1d81170abcfdd443d963fce716c4fedd8a6d329e5e8bc53a23c052cc31b",
    "1": "5bffe88d803ceae7ffbe53be023e41d04323a81e36fdd76088e1c79ce745e69f",
}


def _phi_sweep(phi):
    parameters = NetworkParameters(
        alpha="1/4", cluster_exponent=1, bs_exponent="7/8", backbone_exponent=phi
    )
    return sweep_capacity(
        parameters, (500, 1000), scheme="B", trials=2, seed=1,
        build_kwargs=PHI_BUILD,
    )


@pytest.mark.parametrize(
    "phi, digest", PHI_GOLDEN.items(), ids=[f"phi={phi}" for phi in PHI_GOLDEN]
)
def test_phi_ablation_digest_is_golden(phi, digest):
    result = _phi_sweep(phi)
    assert result.digest() == digest, f"rates now {[r.hex() for r in result.rates]}"


def test_phi_ablation_saturates_at_zero():
    rates = {phi: [float(r) for r in _phi_sweep(phi).rates] for phi in PHI_GOLDEN}
    saturated = [float.fromhex("0x1.4130a5c67c0c2p-7"), float.fromhex("0x1.02b07ec947b2ap-7")]
    assert rates["0"] == rates["1"] == saturated
    assert all(starved < full for starved, full in zip(rates["-1/2"], rates["0"]))
