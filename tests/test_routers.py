"""Unit tests for the per-scheme packet routers."""

import numpy as np
import pytest

from repro.geometry.tessellation import SquareTessellation
from repro.infrastructure.backbone import Backbone
from repro.mobility.processes import IIDAroundHome
from repro.mobility.shapes import UniformDiskShape
from repro.simulation.engine import Packet, SlottedSimulator
from repro.simulation.routers import (
    SchemeARouter,
    SchemeBRouter,
    TwoHopRelayRouter,
)
from repro.simulation.traffic import PermutationTraffic, permutation_traffic
from repro.wireless.scheduler import PolicySStar


def make_packet(source=0, destination=1, holder=None):
    return Packet(
        pid=0,
        source=source,
        destination=destination,
        created_slot=0,
        holder=source if holder is None else holder,
    )


class TestSchemeARouter:
    def _router(self, rng, n=50, side=4):
        tess = SquareTessellation(side)
        homes = rng.random((n, 2))
        return SchemeARouter(tess, tess.cell_of(homes)), tess, homes

    def test_plan_created(self, rng):
        router, tess, homes = self._router(rng)
        packet = make_packet(0, 10)
        router.on_packet_created(packet)
        assert packet.state["route"][0] == tess.cell_of(homes[0:1])[0]
        assert packet.state["route"][-1] == tess.cell_of(homes[10:11])[0]
        assert packet.state["index"] == 0

    def test_select_prefers_destination(self, rng):
        router, _, _ = self._router(rng)
        packet = make_packet(0, 10)
        router.on_packet_created(packet)
        assert router.select_transfer([packet], 0, 10) is packet

    def test_select_next_cell_relay(self, rng):
        router, tess, homes = self._router(rng)
        cells = tess.cell_of(homes)
        packet = make_packet(0, 10)
        router.on_packet_created(packet)
        route = packet.state["route"]
        if len(route) > 1:
            relays = [i for i in range(50) if cells[i] == route[1] and i != 10]
            if relays:
                assert router.select_transfer([packet], 0, relays[0]) is packet

    def test_rejects_wrong_cell_peer(self, rng):
        router, tess, homes = self._router(rng)
        cells = tess.cell_of(homes)
        packet = make_packet(0, 10)
        router.on_packet_created(packet)
        route = packet.state["route"]
        if len(route) > 1:
            wrong = [
                i
                for i in range(50)
                if cells[i] not in (route[1],) and i != 10
            ]
            assert router.select_transfer([packet], 0, wrong[0]) is None

    def test_bs_ignored(self, rng):
        router, _, _ = self._router(rng, n=50)
        packet = make_packet(0, 10)
        router.on_packet_created(packet)
        assert router.select_transfer([packet], 0, 55) is None  # index >= n

    def test_transfer_advances_index(self, rng):
        router, tess, homes = self._router(rng)
        cells = tess.cell_of(homes)
        packet = make_packet(0, 10)
        router.on_packet_created(packet)
        route = packet.state["route"]
        if len(route) > 1:
            relay = next(
                i for i in range(50) if cells[i] == route[1] and i != 10
            )
            router.on_transfer(packet, 0, relay)
            assert packet.state["index"] == 1


class TestTwoHopRouter:
    def test_delivers_to_destination(self):
        router = TwoHopRelayRouter(ms_count=10)
        packet = make_packet(0, 3)
        assert router.select_transfer([packet], 0, 3) is packet

    def test_source_relays_fresh_packet(self):
        router = TwoHopRelayRouter(ms_count=10)
        packet = make_packet(0, 3)
        assert router.select_transfer([packet], 0, 5) is packet

    def test_relay_holds_until_destination(self):
        router = TwoHopRelayRouter(ms_count=10)
        packet = make_packet(0, 3, holder=5)
        packet.hops = 1
        assert router.select_transfer([packet], 5, 7) is None
        assert router.select_transfer([packet], 5, 3) is packet

    def test_bs_ignored(self):
        router = TwoHopRelayRouter(ms_count=10)
        packet = make_packet(0, 3)
        assert router.select_transfer([packet], 0, 12) is None

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            TwoHopRelayRouter(ms_count=1)

    def test_end_to_end_two_hop(self, rng):
        """Grossglauser-Tse style delivery through the real engine."""
        n = 80
        homes = rng.random((n, 2))
        process = IIDAroundHome(homes, UniformDiskShape(1.0), 1.0, rng)  # full roam
        scheduler = PolicySStar(node_count=n, c_t=0.4, delta=0.5)
        traffic = permutation_traffic(rng, n)
        sim = SlottedSimulator(
            process, scheduler, TwoHopRelayRouter(n), traffic, 0.05, rng
        )
        metrics = sim.run(400)
        assert metrics.delivered > 0
        assert np.all(metrics.hop_counts <= 2)


class TestSchemeBRouter:
    def _setup(self, rng, n=30, k=6, zones=2):
        ms_zone = rng.integers(0, zones, n)
        bs_zone = np.tile(np.arange(zones), k // zones)
        backbone = Backbone(k, edge_capacity=1.0)
        router = SchemeBRouter(ms_zone, bs_zone, backbone, rng)
        return router, ms_zone, bs_zone

    def test_uplink_same_zone_only(self, rng):
        router, ms_zone, bs_zone = self._setup(rng)
        source = 0
        packet = make_packet(source, 5)
        same_zone_bs = int(np.nonzero(bs_zone == ms_zone[source])[0][0])
        other_zone_bs = int(np.nonzero(bs_zone != ms_zone[source])[0][0])
        assert router.select_transfer([packet], source, 30 + same_zone_bs) is packet
        assert router.select_transfer([packet], source, 30 + other_zone_bs) is None

    def test_direct_delivery_allowed(self, rng):
        router, _, _ = self._setup(rng)
        packet = make_packet(0, 5)
        assert router.select_transfer([packet], 0, 5) is packet

    def test_downlink_only_in_destination_zone(self, rng):
        router, ms_zone, bs_zone = self._setup(rng)
        dest = 5
        packet = make_packet(0, dest)
        right_bs = int(np.nonzero(bs_zone == ms_zone[dest])[0][0])
        wrong_bs = int(np.nonzero(bs_zone != ms_zone[dest])[0][0])
        packet.holder = 30 + right_bs
        assert router.select_transfer([packet], 30 + right_bs, dest) is packet
        packet.holder = 30 + wrong_bs
        assert router.select_transfer([packet], 30 + wrong_bs, dest) is None

    def test_no_bs_to_bs_wireless(self, rng):
        router, _, _ = self._setup(rng)
        packet = make_packet(0, 5, holder=30)
        assert router.select_transfer([packet], 30, 31) is None

    def test_wired_step_moves_toward_destination_zone(self, rng):
        router, ms_zone, bs_zone = self._setup(rng)
        dest = 5
        # a packet parked on a BS in the wrong zone
        wrong_bs = int(np.nonzero(bs_zone != ms_zone[dest])[0][0])
        packet = make_packet(0, dest, holder=30 + wrong_bs)
        queues = {node: [] for node in range(30 + 6)}
        queues[30 + wrong_bs].append(packet)
        router.on_transfer(packet, 0, 30 + wrong_bs)  # the engine's uplink hook
        router.wired_step(queues, slot=0)
        new_bs = packet.holder - 30
        assert bs_zone[new_bs] == ms_zone[dest]

    def test_wired_step_respects_capacity(self, rng):
        """With c = 0.5 a wire can move one packet only every 2 slots."""
        ms_zone = np.array([0, 1])
        bs_zone = np.array([0, 1])
        backbone = Backbone(2, edge_capacity=0.5)
        router = SchemeBRouter(ms_zone, bs_zone, backbone, rng)
        packets = [make_packet(0, 1, holder=2) for _ in range(4)]
        queues = {0: [], 1: [], 2: list(packets), 3: []}
        for packet in packets:
            router.on_transfer(packet, 0, 2)  # the engine's uplink hook
        moved = []
        for slot in range(8):
            router.wired_step(queues, slot)
            moved.append(len(queues[3]))
        assert moved[-1] == 4
        # never more than ~c per slot on sustained average
        assert moved[1] <= 2
