"""Unit tests for the slotted packet simulator."""

import numpy as np
import pytest

from repro.core.regimes import NetworkParameters
from repro.experiments import delay
from repro.mobility.processes import IIDAroundHome
from repro.mobility.shapes import UniformDiskShape
from repro.simulation.engine import Packet, PacketRouter, SlottedSimulator
from repro.simulation.network import HybridNetwork
from repro.simulation.routers import SchemeBRouter
from repro.simulation.traffic import permutation_traffic
from repro.wireless.scheduler import PolicySStar


class AlwaysDeliverRouter(PacketRouter):
    """Hands any packet to any peer; delivery only at the destination."""

    def select_transfer(self, queue, holder, peer):
        return queue[0] if queue else None


def make_sim(rng, n=60, arrival=0.1, router=None, static=None):
    homes = rng.random((n, 2))
    process = IIDAroundHome(homes, UniformDiskShape(1.0), 0.3, rng)
    total = n + (0 if static is None else len(static))
    scheduler = PolicySStar(node_count=total, c_t=0.4, delta=0.5)
    traffic = permutation_traffic(rng, n)
    return SlottedSimulator(
        process=process,
        scheduler=scheduler,
        router=router or AlwaysDeliverRouter(),
        traffic=traffic,
        arrival_prob=arrival,
        rng=rng,
        static_positions=static,
    )


class TestConstruction:
    def test_invalid_arrival(self, rng):
        with pytest.raises(ValueError):
            make_sim(rng, arrival=1.5)

    def test_traffic_size_mismatch(self, rng):
        homes = rng.random((10, 2))
        process = IIDAroundHome(homes, UniformDiskShape(1.0), 0.3, rng)
        traffic = permutation_traffic(rng, 20)
        with pytest.raises(ValueError):
            SlottedSimulator(
                process, PolicySStar(10), AlwaysDeliverRouter(), traffic, 0.1, rng
            )


class TestConservation:
    def test_packets_conserved(self, rng):
        sim = make_sim(rng)
        metrics = sim.run(40)
        assert metrics.created == metrics.delivered + metrics.in_flight

    def test_zero_arrivals_nothing_happens(self, rng):
        sim = make_sim(rng, arrival=0.0)
        metrics = sim.run(10)
        assert metrics.created == 0
        assert metrics.delivered == 0

    def test_slot_counter(self, rng):
        sim = make_sim(rng)
        metrics = sim.run(7)
        assert metrics.slots == 7
        metrics = sim.run(3)
        assert metrics.slots == 10

    def test_invalid_slots(self, rng):
        with pytest.raises(ValueError):
            make_sim(rng).run(0)


class TestDelivery:
    def test_packets_eventually_delivered(self, rng):
        sim = make_sim(rng, n=80, arrival=0.02)
        metrics = sim.run(300)
        assert metrics.delivered > 0
        assert metrics.per_node_throughput > 0

    def test_delays_non_negative(self, rng):
        sim = make_sim(rng, n=80, arrival=0.05)
        metrics = sim.run(200)
        assert np.all(metrics.delays >= 0)

    def test_hops_positive_for_delivered(self, rng):
        sim = make_sim(rng, n=80, arrival=0.05)
        metrics = sim.run(200)
        if metrics.hop_counts.size:
            assert np.all(metrics.hop_counts >= 1)


class TestMetrics:
    def test_summary_renders(self, rng):
        metrics = make_sim(rng).run(20)
        text = metrics.summary()
        assert "throughput" in text

    def test_delivery_ratio_bounds(self, rng):
        metrics = make_sim(rng, arrival=0.1).run(50)
        assert 0 <= metrics.delivery_ratio <= 1

    def test_empty_metrics_are_nan(self, rng):
        metrics = make_sim(rng, arrival=0.0).run(5)
        assert np.isnan(metrics.mean_delay)
        assert np.isnan(metrics.mean_hops)
        assert metrics.delivery_ratio == 0.0


class FullScanSimulator(SlottedSimulator):
    """Reference step: after the wired step, every queue is scanned for
    delivered packets in ascending node order -- the check the engine
    narrows to the packets the wired step reports as moved."""

    def step(self):
        positions = self._process.step()
        if self._static is not None:
            positions = np.concatenate([positions, self._static])
        self._spawn_packets()
        schedule = self._scheduler.schedule(positions)
        for a, b in schedule.pairs:
            for holder, peer in ((a, b), (b, a)):
                packet = self._router.select_transfer(
                    self._queues[holder], holder, peer
                )
                if packet is not None:
                    self._transfer(packet, holder, peer)
        self._router.wired_step(self._queues, self._slot)
        for node, queue in self._queues.items():
            finished = [p for p in queue if self._router.is_delivered(p)]
            for packet in finished:
                queue.remove(packet)
                packet.state.setdefault("delivered_slot", self._slot)
                self._delivered.append(packet)
        self._slot += 1


def _delivered(sim):
    return [
        (p.pid, p.state["delivered_slot"], p.hops, p.holder) for p in sim._delivered
    ]


def _queued(sim):
    return {node: [p.pid for p in queue] for node, queue in sim.queues.items()}


def _discipline_sim(cls, label, n=200, seed=5, slots=300, arrival=0.02):
    """One ``compare_delays`` discipline on the delay experiment's network,
    at a load high enough to deliver packets in a short run."""
    router_factory, include_bs = delay._DISCIPLINES[label]
    rng = np.random.default_rng(seed)
    parameters = NetworkParameters(
        alpha="1/4", cluster_exponent=1, bs_exponent="7/8", backbone_exponent=1
    )
    net = HybridNetwork.build(parameters, n, rng)
    traffic = permutation_traffic(rng, n)
    process = IIDAroundHome(
        net.home_model.points, net.shape, 1.0 / net.realized.f, rng
    )
    router = router_factory(net)
    sim = cls(
        process, net.scheduler(), router, traffic, arrival, rng,
        static_positions=net.bs_positions if include_bs else None,
    )
    metrics = sim.run(slots)
    return sim, metrics


class TestMovedPacketDelivery:
    """Checking only the wired step's moved packets delivers exactly what
    the full-queue scan delivered, in the same order."""

    @pytest.mark.parametrize("label", delay.DELAY_SCHEMES)
    def test_matches_full_scan(self, label):
        fast, fast_metrics = _discipline_sim(SlottedSimulator, label)
        slow, slow_metrics = _discipline_sim(FullScanSimulator, label)
        assert fast_metrics.delivered > 0
        assert _delivered(fast) == _delivered(slow)
        assert _queued(fast) == _queued(slow)
        np.testing.assert_array_equal(fast_metrics.delays, slow_metrics.delays)
        assert fast_metrics.mean_delay == slow_metrics.mean_delay

    def test_scheme_b_wired_step_reports_its_moves(self, monkeypatch):
        reports = []
        wired_step = SchemeBRouter.wired_step

        def spy(router, queues, slot):
            moved = wired_step(router, queues, slot)
            reports.append([(p.holder, p in queues[p.holder]) for p in moved])
            return moved

        monkeypatch.setattr(SchemeBRouter, "wired_step", spy)
        sim, _ = _discipline_sim(SlottedSimulator, "scheme-B")
        moved = [entry for report in reports for entry in report]
        assert len(reports) == 300 and moved, "the backbone moved nothing"
        # every move lands on a BS queue, never on a destination MS
        assert all(queued and holder >= sim.ms_count for holder, queued in moved)


class TeleportRouter(PacketRouter):
    """No wireless hops; at slot ``when`` the wired step puts the packets
    ``pids`` (in that order) on their destinations and reports them in the
    reverse order."""

    def __init__(self, when, pids):
        self._when = when
        self._pids = pids

    def select_transfer(self, queue, holder, peer):
        return None

    def wired_step(self, queues, slot):
        if slot != self._when:
            return []
        by_pid = {p.pid: p for queue in queues.values() for p in queue}
        moved = []
        for pid in self._pids:
            packet = by_pid[pid]
            queues[packet.holder].remove(packet)
            packet.holder = packet.destination
            queues[packet.holder].append(packet)
            moved.append(packet)
        return moved[::-1]


class TestWiredDeliveryOrder:
    """A wired step that delivers: the only case the full-queue scan could
    ever catch.  Deliveries follow ascending holder, then queue position,
    whatever order the router reports its moves in."""

    N = 12

    def _run(self, cls, pids):
        rng = np.random.default_rng(9)
        homes = rng.random((self.N, 2))
        process = IIDAroundHome(homes, UniformDiskShape(1.0), 0.3, rng)
        traffic = permutation_traffic(rng, self.N)
        sim = cls(
            process, PolicySStar(self.N), TeleportRouter(1, pids), traffic, 1.0, rng
        )
        sim.run(3)
        return sim, traffic

    def test_two_holders_in_one_slot(self):
        # every source sends every slot: pid = slot * N + source
        sim, traffic = self._run(SlottedSimulator, [3, 8])
        oracle, _ = self._run(FullScanSimulator, [3, 8])
        got = _delivered(sim)
        assert got == _delivered(oracle)
        holders = sorted(int(traffic.destination[s]) for s in (3, 8))
        assert [holder for *_, holder in got] == holders
        assert {slot for _, slot, _, _ in got} == {1}
        assert [hops for _, _, hops, _ in got] == [0, 0]

    def test_one_holder_keeps_queue_order(self):
        # source 4's packets of slots 0 and 1 land on the same destination
        pids = [4, self.N + 4]
        sim, _ = self._run(SlottedSimulator, pids)
        oracle, _ = self._run(FullScanSimulator, pids)
        assert [pid for pid, *_ in _delivered(sim)] == pids
        assert _delivered(sim) == _delivered(oracle)
