"""The transit-only wired step of :class:`SchemeBRouter` against a full scan.

:class:`FullScanSchemeBRouter` keeps the wired step the router used to take:
every slot it re-examines every packet on every BS queue and skips those
already in place.  The router itself visits only the packets still due to
cross the backbone.  Over long runs with many parked packets, in zone mode
and in ``preferred_bs`` mode, both must move the same packets in the same
slots, leave the shared generator in the same state and report the same
metrics.
"""

import numpy as np
import pytest

from repro.core.regimes import NetworkParameters
from repro.mobility.processes import IIDAroundHome
from repro.routing.scheme_b import SchemeB
from repro.simulation.engine import PacketRouter, SlottedSimulator
from repro.simulation.network import HybridNetwork
from repro.simulation.routers import SchemeBRouter
from repro.simulation.traffic import permutation_traffic
from tests.test_engine import _delivered, _queued


class FullScanSchemeBRouter(SchemeBRouter):
    """Scheme B with the full-scan wired step and no transit bookkeeping."""

    on_transfer = PacketRouter.on_transfer

    def wired_step(self, queues, slot):
        moved = []
        for bs_local in range(self._backbone.bs_count):
            node = self._n + bs_local
            queue = queues.get(node)
            if not queue:
                continue
            for packet in list(queue):
                dest_zone = int(self._ms_zone[packet.destination])
                if self._preferred_bs is not None:
                    target = int(self._preferred_bs[packet.destination])
                    if target < 0 or target == bs_local:
                        continue
                else:
                    if self._bs_zone[bs_local] == dest_zone:
                        continue  # already in the destination zone
                    targets = self._bs_by_zone.get(dest_zone)
                    if targets is None or targets.size == 0:
                        continue
                    target = int(self._rng.choice(targets))
                    if target == bs_local:
                        continue
                edge = (min(bs_local, target), max(bs_local, target))
                credit = self._edge_credit(edge, slot)
                if credit >= 1.0:
                    self._credit[edge] = credit - 1.0
                    queue.remove(packet)
                    packet.holder = self._n + target
                    queues[packet.holder].append(packet)
                    moved.append(packet)
        return moved


def _recording(cls):
    """``cls`` with every slot's wired moves, the packets parked on BSs
    and the Phase III exits of transit packets recorded."""

    class Recording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.moves = []
            self.parked = []
            self.transit_exits = 0

        def on_transfer(self, packet, from_node, to_node):
            if from_node >= self._n and self._in_transit(packet, from_node - self._n):
                self.transit_exits += 1
            super().on_transfer(packet, from_node, to_node)

        def wired_step(self, queues, slot):
            self.parked.append(
                sum(
                    not self._in_transit(packet, node - self._n)
                    for node, queue in queues.items()
                    if node >= self._n
                    for packet in queue
                )
            )
            moved = super().wired_step(queues, slot)
            self.moves.append([(packet.pid, packet.holder) for packet in moved])
            return moved

    return Recording


def _run(router_cls, preferred, phi, n=200, seed=5, slots=300, arrival=0.05):
    """Scheme B on the delay experiment's network (backbone exponent
    ``phi``) at a load that parks many packets on BS queues.  ``preferred``
    attaches each MS to a random BS of its zone (a fifth of them to none)
    from a generator of its own, so the shared stream is the same in both
    modes."""
    parameters = NetworkParameters(
        alpha="1/4", cluster_exponent=1, bs_exponent="7/8", backbone_exponent=phi
    )
    rng = np.random.default_rng(seed)
    net = HybridNetwork.build(parameters, n, rng)
    traffic = permutation_traffic(rng, n)
    process = IIDAroundHome(
        net.home_model.points, net.shape, 1.0 / net.realized.f, rng
    )
    ms_zone, bs_zone, _ = SchemeB.squarelet_zones(
        net.home_model.points, net.bs_positions, 2
    )
    preferred_bs = None
    if preferred:
        pick = np.random.default_rng(seed + 1)
        preferred_bs = np.array(
            [
                pick.choice(np.flatnonzero(bs_zone == zone))
                if pick.random() > 0.2 and np.any(bs_zone == zone)
                else -1
                for zone in ms_zone
            ]
        )
    router = _recording(router_cls)(
        ms_zone, bs_zone, net.backbone, rng, preferred_bs=preferred_bs
    )
    sim = SlottedSimulator(
        process, net.scheduler(), router, traffic, arrival, rng,
        static_positions=net.bs_positions,
    )
    metrics = sim.run(slots)
    return sim, router, metrics, rng


@pytest.mark.parametrize(
    "preferred, phi",
    [(False, 1), (False, 0), (True, 1), (True, 0)],
    ids=["zone", "zone-starved", "preferred-bs", "preferred-bs-starved"],
)
def test_transit_step_matches_full_scan(preferred, phi):
    """``phi = 1`` moves each packet the slot it reaches its first BS;
    ``phi = 0`` starves the wires (about one packet per wire every 150
    slots), so transit packets wait, draw a zone-mode target every slot and,
    with ``preferred_bs``, can leave by a Phase III delivery instead."""
    sim, router, metrics, rng = _run(SchemeBRouter, preferred, phi)
    oracle_sim, oracle, oracle_metrics, oracle_rng = _run(
        FullScanSchemeBRouter, preferred, phi
    )
    # the runs exercise what the transit list skips and what it must see
    assert max(router.parked) >= 500, "too few parked packets to rescan"
    assert sum(map(len, router.moves)) >= 500, "the backbone moved too little"
    if preferred and phi == 0:
        assert router.transit_exits > 0, "no transit packet left by Phase III"
    assert router.moves == oracle.moves
    assert router.parked == oracle.parked
    assert _delivered(sim) == _delivered(oracle_sim)
    assert _queued(sim) == _queued(oracle_sim)
    assert (metrics.created, metrics.delivered, metrics.in_flight) == (
        oracle_metrics.created, oracle_metrics.delivered, oracle_metrics.in_flight
    )
    np.testing.assert_array_equal(metrics.delays, oracle_metrics.delays)
    np.testing.assert_array_equal(metrics.hop_counts, oracle_metrics.hop_counts)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
