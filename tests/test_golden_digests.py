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

The packet path is pinned too: ``compare_delays`` (all three forwarding
disciplines on one realisation) and ``SlottedSimulator`` under each of
``HybridNetwork``'s four mobility kinds, with and without static BSs, on
``S*`` and on the greedy matching scheduler.  Each engine pin hashes the
cumulative metrics *and* every slot's scheduled pairs, so a static
network that delivers nothing still pins its schedule.

A change that is meant to move a value must update its entry here in the
same change and say why (CHANGES.md), after checking that the fitted
scaling slopes still match ``core.capacity``.
"""

import numpy as np
import pytest

from repro.core.regimes import NetworkParameters
from repro.experiments.delay import compare_delays
from repro.experiments.scaling import sweep_capacity
from repro.experiments.table1 import TABLE1_ROWS
from repro.mobility.shapes import UniformDiskShape
from repro.routing.scheme_b import SchemeB
from repro.simulation.engine import SlottedSimulator
from repro.simulation.network import HybridNetwork
from repro.simulation.routers import SchemeARouter, SchemeBRouter
from repro.simulation.traffic import permutation_traffic
from repro.store import content_digest
from repro.wireless.scheduler import GreedyMatchingScheduler

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


#: strong mobility with BSs (a=1/4 M=1 K=7/8 phi=1), ``compare_delays``'s default
STRONG_BS = NetworkParameters(
    alpha="1/4", cluster_exponent=1, bs_exponent="7/8", backbone_exponent=1
)

#: seed -> digest of ``compare_delays(300, seed, slots=60, arrival_prob=0.02)``
DELAY_GOLDEN = {
    1: "7741368cb260da90f8cc674be9f4a5a5dd24b11c4e0ef1a106334d537cd1b599",
    2: "c64e7dc271dcd0dd6e423596922e0ef854758e8701d353b6ba5789a640149886",
}


@pytest.mark.parametrize(
    "seed, digest", DELAY_GOLDEN.items(), ids=[f"seed{seed}" for seed in DELAY_GOLDEN]
)
def test_delay_comparison_digest_is_golden(seed, digest):
    result = compare_delays(300, seed=seed, slots=60, arrival_prob=0.02)
    assert sum(result.delivered.values()) > 0  # the pin is not vacuous
    stats = [result.mean_delay, result.mean_hops, result.delivered]
    assert content_digest(stats) == digest, f"statistics now {stats}"


#: (scheduler, mobility kind, with BSs) -> (metrics digest, schedule digest)
#: of a 60-slot run at n = 300, seed 3, arrival probability 0.05: scheme A
#: forwarding without BSs, scheme B forwarding with them.  ``sstar`` is the
#: network's own ``S*`` policy, ``greedy`` the greedy matching at its range.
ENGINE_GOLDEN = {
    ("sstar", "iid", False): (
        "cc201d835329b9e110e0575ab3cb4595f73e71458890a366f0f43d0b69127944",
        "021c10550bf29a373f98f31d41248e16793c6f0a79c8ebc1f0d4622cc1481028",
    ),
    ("sstar", "iid", True): (
        "9ef6e9c70d039663c1f0c1f38448a05381e321974db0e22032fb589ac30abf77",
        "2eb49b8cea49c3fd8218e9e3c4049b9aad7cf19fad125051b311ec5294e46489",
    ),
    ("sstar", "metropolis", False): (
        "8e44dc26a0f5d7e8bb7ab4b4b98584da88b46aa760d90263f9104bddaf5a966d",
        "96aebeba19acd4125d27fbb4e43aebc27bf56372a50003605a8cef7fbd8aca0a",
    ),
    ("sstar", "metropolis", True): (
        "194aaf3aef2d6cb2d54b0766d681e85f6c575d5ffb6562bc8cbbb667b2c66bf0",
        "bc69811b63984fcf155d06acafb9473185b64d35dd4d738c649e0c6c485fb49a",
    ),
    ("sstar", "waypoint", False): (
        "0e1fd2f47d6fafefd5d1b642794a0efcd446ffd1d5b2065c5d6f8095560f2f20",
        "196651a13d789214ddc1f3aa6a1e630650d90837f6b145b16e313af2ee8c1778",
    ),
    ("sstar", "waypoint", True): (
        "1ad2ed1882a5aefc87c79662b7eef1740c98eb1cf42df241d508b8da16ac07e0",
        "ef9e09489a5fb7b80ecf24928c5373f59ba5cf3301c3c2ce050b9b4d940b89e4",
    ),
    ("sstar", "static", False): (
        "4a23b3cd177f1477e4c9f0cefeaacbb80781abfc7680a42256eb2de9489bdca6",
        "86ff4d234991d5797aa0e8204ca444378caa4d2282cf3ac9475d8e0fc7b742e3",
    ),
    ("sstar", "static", True): (
        "4a23b3cd177f1477e4c9f0cefeaacbb80781abfc7680a42256eb2de9489bdca6",
        "c77f7acf7c6fbd8f477503bc85051fc8d00dece55978926c97e443ab31f6d480",
    ),
    ("greedy", "iid", False): (
        "3d1dff685cc186bbccaa451952e59a57aeb3088c6dec7a1f6b0c91ab784577e5",
        "ec68f0a67b5ec7340df969df1f550aa0220da99987bbb6375ec369e3999ed1e2",
    ),
    ("greedy", "iid", True): (
        "828d56d699d78170758b193d31c45b69fbe805ba87cd799f87c5205dcdf0f06c",
        "ef13ad0afef2b2c2b0b37bcc30617081da31023704ffedf732c8e11cdf6f5f80",
    ),
    ("greedy", "metropolis", False): (
        "3e1051c794695edc699958e7fb4ca6edd88f074a63dd117e5da81e24954ded09",
        "48a34db4d80f1c62239a61696e2945b0221765ec0f9d7db73e3edcbe6b902775",
    ),
    ("greedy", "metropolis", True): (
        "990d96d499a00ddf7f9e6163f05f00617fa48c7a6371eb3084b8d5616f5300a0",
        "784d48fcb4262ca6bd32304241e3c963708bcf595209039c9d17b4ec4e3e74c2",
    ),
    ("greedy", "waypoint", False): (
        "50e0ae8ba32da80920b3b8fe24712f3a82b06f2b60969979a621f56dd7e3c6cd",
        "539c9f653a4e7c7a2412e3ac57788f846c4380f9cdc060dc8f88862f17acef7a",
    ),
    ("greedy", "waypoint", True): (
        "93f9341e1a8f3ede2e3395386b2692de2eee35800634fadaf51a2c033f862a9c",
        "72507083ae7c92a7eb370003937d18d81e7ee8ee4c78ec38fbf8d4a53f7b5012",
    ),
    ("greedy", "static", False): (
        "4a23b3cd177f1477e4c9f0cefeaacbb80781abfc7680a42256eb2de9489bdca6",
        "044395ccadba70502f2271f5c13997b60f86b00586adedebfaf52806fce755b2",
    ),
    ("greedy", "static", True): (
        "4a23b3cd177f1477e4c9f0cefeaacbb80781abfc7680a42256eb2de9489bdca6",
        "4b2bca6ac85cd089cbe20ab015f5642c28884d80c52454f52627bc4fbecbaaca",
    ),
}


class RecordingScheduler:
    """Passes each slot to ``inner`` and keeps the pairs it enables."""

    def __init__(self, inner):
        self._inner = inner
        self.pairs = []

    def schedule(self, positions):
        schedule = self._inner.schedule(positions)
        self.pairs.append(np.asarray(schedule.pairs).tolist())
        return schedule


def _engine_run(scheduler, mobility, with_bs, n=300, slots=60, seed=3, arrival_prob=0.05):
    rng = np.random.default_rng(seed)
    net = HybridNetwork.build(STRONG_BS, n, rng, mobility=mobility)
    traffic = permutation_traffic(rng, n)
    if with_bs:
        ms_zone, bs_zone, _ = SchemeB.squarelet_zones(
            net.home_model.points, net.bs_positions, 2
        )
        router = SchemeBRouter(ms_zone, bs_zone, net.backbone, net.rng)
    else:
        scheme = net.scheme_a()
        router = SchemeARouter(
            scheme.tessellation, scheme.tessellation.cell_of(net.home_model.points)
        )
    policy = net.scheduler()
    if scheduler == "greedy":
        policy = GreedyMatchingScheduler(policy.transmission_range(), delta=net.delta)
    recorder = RecordingScheduler(policy)
    sim = SlottedSimulator(
        net.process, recorder, router, traffic, arrival_prob, rng,
        static_positions=net.bs_positions if with_bs else None,
    )
    metrics = sim.run(slots)
    return metrics, recorder.pairs


@pytest.mark.parametrize(
    "scheduler, mobility, with_bs", ENGINE_GOLDEN,
    ids=[f"{sch}-{kind}-{'bs' if bs else 'no-bs'}" for sch, kind, bs in ENGINE_GOLDEN],
)
def test_engine_digest_is_golden(scheduler, mobility, with_bs):
    metrics, pairs = _engine_run(scheduler, mobility, with_bs)
    assert metrics.created > 0 and sum(map(len, pairs)) > 0
    measured = content_digest([
        metrics.created, metrics.delivered, metrics.in_flight,
        metrics.delays.tolist(), metrics.hop_counts.tolist(),
    ])
    assert (measured, content_digest(pairs)) == ENGINE_GOLDEN[scheduler, mobility, with_bs]
