"""Integration test: scheme C end-to-end at the packet level.

Combines the TDMA cell scheduler (Definition 13's scheduling) with the
three-phase BS router over the wired backbone, on a static clustered
network -- the full operational realisation of Theorem 9's scheme.
"""

import numpy as np
import pytest

from repro.geometry.torus import disk_sample
from repro.infrastructure.backbone import Backbone
from repro.infrastructure.placement import hexagonal_cluster_placement
from repro.mobility.processes import StaticProcess
from repro.routing.scheme_c import SchemeC
from repro.simulation.engine import SlottedSimulator
from repro.simulation.routers import SchemeBRouter
from repro.simulation.traffic import permutation_traffic
from repro.store import content_digest
from repro.wireless.scheduler import TDMACellScheduler


def _simulate(slots):
    n, m, radius, per_cluster = 120, 4, 0.05, 4
    rng = np.random.default_rng(8)
    centers = np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])
    assignment = rng.integers(0, m, size=n)
    positions = disk_sample(rng, centers[assignment], radius)
    bs = hexagonal_cluster_placement(centers, radius, per_cluster)
    bs_cluster = np.repeat(np.arange(m), per_cluster)
    backbone = Backbone(m * per_cluster, edge_capacity=1.0)
    scheme = SchemeC(
        ms_positions=positions,
        bs_positions=bs,
        ms_cluster=assignment,
        bs_cluster=bs_cluster,
        backbone=backbone,
        delta=1.0,
    )
    traffic = permutation_traffic(rng, n)
    flow_rate = scheme.sustainable_rate(traffic).per_node_rate
    scheduler = TDMACellScheduler(
        scheme.cell_of_ms,
        scheme._groups,
        ms_count=n,
        cell_range=scheme.cell_range,
    )
    router = SchemeBRouter(
        assignment, bs_cluster, backbone, rng, preferred_bs=scheme.cell_of_ms
    )
    sim = SlottedSimulator(
        StaticProcess(positions),
        scheduler,
        router,
        traffic,
        arrival_prob=0.5 * flow_rate,
        rng=rng,
        static_positions=bs,
    )
    metrics = sim.run(slots)
    return scheme, flow_rate, metrics


@pytest.fixture(scope="module")
def scheme_c_simulation():
    return _simulate(3000)


class TestSchemeCPacketLevel:
    def test_packets_delivered(self, scheme_c_simulation):
        _, _, metrics = scheme_c_simulation
        assert metrics.delivered > 50

    def test_queues_stable_below_capacity(self, scheme_c_simulation):
        _, _, metrics = scheme_c_simulation
        # at half the flow-level rate the backlog stays a small multiple of
        # the delivered count (no unbounded growth)
        assert metrics.in_flight < metrics.delivered

    def test_throughput_tracks_offered(self, scheme_c_simulation):
        _, flow_rate, metrics = scheme_c_simulation
        offered = 0.5 * flow_rate
        assert metrics.per_node_throughput > 0.4 * offered

    def test_hop_counts_are_two_wireless(self, scheme_c_simulation):
        """Scheme C sessions take exactly 2 wireless hops (up + down);
        the wired crossing is not a wireless hop."""
        _, _, metrics = scheme_c_simulation
        assert float(metrics.hop_counts.max()) <= 2.0

    def test_flow_prediction_positive(self, scheme_c_simulation):
        scheme, flow_rate, _ = scheme_c_simulation
        assert flow_rate > 0
        assert scheme.group_count >= 1

    def test_short_run_digest_is_golden(self):
        """The only pin on the router's ``preferred_bs`` mode: 600 slots of
        this network, hashed like the engine pins of
        ``tests/test_golden_digests.py``."""
        _, _, metrics = _simulate(600)
        assert (metrics.created, metrics.delivered) == (320, 296)
        assert content_digest([
            metrics.created, metrics.delivered, metrics.in_flight,
            metrics.delays.tolist(), metrics.hop_counts.tolist(),
        ]) == "3f338bdd355803b6f78db536d90045fe7b5a64cdc096b01f44402b4870734c59"
