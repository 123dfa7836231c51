"""Slotted packet-level network simulator.

Implements Definition 5 (feasible throughput) operationally: the network is
run in a multi-hop, store-and-forward fashion -- every slot the mobility
process advances, the scheduling policy selects non-interfering node pairs,
and packets move one hop across enabled pairs according to a
:class:`PacketRouter`.  Delivered bits per slot per node estimate the
sustained throughput, which the integration tests compare against the
flow-level predictions.

The engine is scheme-agnostic; routers for scheme A, scheme B and the
classical two-hop relay live in :mod:`repro.simulation.routers`.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..mobility.processes import MobilityProcess
from ..observability.events import SlotBatch, get_telemetry
from ..observability.log import get_logger
from ..wireless.scheduler import Scheduler
from .metrics import SimulationMetrics
from .traffic import PermutationTraffic

__all__ = ["Packet", "PacketRouter", "SlottedSimulator"]

_log = get_logger(__name__)


@dataclass
class Packet:
    """One unit of traffic travelling from its source MS to its destination MS."""

    pid: int
    source: int
    destination: int
    created_slot: int
    holder: int
    hops: int = 0
    state: dict = field(default_factory=dict)


class PacketRouter(abc.ABC):
    """Decides which packet (if any) crosses each enabled wireless pair.

    Node indices ``0 .. n-1`` are mobile stations; indices ``>= n`` are
    static nodes (base stations) appended by the simulator.
    """

    def on_packet_created(self, packet: Packet) -> None:
        """Initialise router state for a fresh packet (default: nothing)."""

    @abc.abstractmethod
    def select_transfer(
        self, queue: List[Packet], holder: int, peer: int
    ) -> Optional[Packet]:
        """Choose a packet from ``holder``'s queue to hand to ``peer``.

        Return ``None`` when no queued packet should use this opportunity.
        """

    def on_transfer(self, packet: Packet, from_node: int, to_node: int) -> None:
        """Update packet state after a hop (default: nothing)."""

    def is_delivered(self, packet: Packet) -> bool:
        """Whether the packet has reached its destination.

        Must depend on the packet alone (its holder and state), so only a
        packet whose holder changed can become delivered.
        """
        return packet.holder == packet.destination

    def wired_step(self, queues: Dict[int, List[Packet]], slot: int) -> List[Packet]:
        """Advance any wired (non-interfering) transport, e.g. the BS
        backbone of scheme B, and return the packets it moved (default:
        nothing moves).

        Each moved packet is returned once and must sit in
        ``queues[packet.holder]``; the simulator checks :meth:`is_delivered`
        on the returned packets only.
        """
        return []


class SlottedSimulator:
    """Run mobility + scheduling + routing slot by slot.

    Parameters
    ----------
    process:
        Mobility process for the ``n`` MSs.
    scheduler:
        Wireless scheduling policy applied to MS and BS positions jointly.
    router:
        Packet forwarding logic.
    traffic:
        Permutation traffic; source ``i`` emits packets for
        ``traffic.destination[i]``.
    arrival_prob:
        Per-slot Bernoulli probability that each source creates one packet
        (the offered per-node load in packets/slot).
    rng:
        Randomness for arrivals.
    static_positions:
        Base-station positions appended after the MSs (optional).

    Each slot a range-based scheduler builds one
    :class:`~repro.geometry.neighbors.CellGridIndex` over the MS positions
    with the BS block appended.  A diffed index would save nothing: the
    simulator's callers sample the stationary law with
    :class:`~repro.mobility.processes.IIDAroundHome`, which redraws every
    MS every slot.

    Delivery is checked only where a holder changes: on each wireless hop,
    and on the packets :meth:`PacketRouter.wired_step` reports as moved.
    :meth:`PacketRouter.is_delivered` depends on the packet alone, so no
    other queued packet can have become delivered, and no slot scans every
    queue.  Packets the wired step delivers are recorded in ascending holder
    order, then queue position -- the order a scan of all queues would use.
    """

    def __init__(
        self,
        process: MobilityProcess,
        scheduler: Scheduler,
        router: PacketRouter,
        traffic: PermutationTraffic,
        arrival_prob: float,
        rng: np.random.Generator,
        static_positions: Optional[np.ndarray] = None,
    ):
        if not (0 <= arrival_prob <= 1):
            raise ValueError(f"arrival_prob must be in [0, 1], got {arrival_prob}")
        if traffic.session_count != process.count:
            raise ValueError(
                f"traffic has {traffic.session_count} sessions but the mobility "
                f"process drives {process.count} MSs"
            )
        self._process = process
        self._scheduler = scheduler
        self._router = router
        self._traffic = traffic
        self._arrival_prob = arrival_prob
        self._rng = rng
        self._static = (
            np.atleast_2d(np.asarray(static_positions, dtype=float))
            if static_positions is not None and len(static_positions)
            else None
        )
        total = process.count + (0 if self._static is None else self._static.shape[0])
        self._queues: Dict[int, List[Packet]] = {node: [] for node in range(total)}
        self._next_pid = 0
        self._slot = 0
        self._delivered: List[Packet] = []
        self._elapsed = 0.0
        # arrivals prefetched by run() as one (slots, n) Bernoulli matrix;
        # only safe when the arrival stream is not interleaved with the
        # mobility process's draws on a shared generator
        self._arrival_rows: Optional[np.ndarray] = None
        self._arrival_cursor = 0
        self._rng_shared_with_process = getattr(process, "_rng", None) is rng

    # ------------------------------------------------------------------
    @property
    def ms_count(self) -> int:
        """Number of mobile stations."""
        return self._process.count

    @property
    def queues(self) -> Dict[int, List[Packet]]:
        """Live per-node packet queues (read for diagnostics)."""
        return self._queues

    def _prefetch_arrivals(self, slots: int) -> None:
        """Draw ``slots`` slots of Bernoulli arrivals in one RNG call.

        A PCG64 ``random((slots, n))`` consumes the stream row-major,
        exactly as ``slots`` successive ``random(n)`` calls would, so the
        per-slot arrival pattern is bit-identical to unprefetched
        stepping.  Skipped when the arrival generator is shared with the
        mobility process (their draws interleave per slot, so a bulk draw
        would reorder the stream).
        """
        if self._rng_shared_with_process:
            return
        self._arrival_rows = (
            self._rng.random((slots, self.ms_count)) < self._arrival_prob
        )
        self._arrival_cursor = 0

    def _clear_arrivals(self) -> None:
        self._arrival_rows = None
        self._arrival_cursor = 0

    def _spawn_packets(self) -> int:
        rows = self._arrival_rows
        if rows is not None and self._arrival_cursor < rows.shape[0]:
            arrivals = rows[self._arrival_cursor]
            self._arrival_cursor += 1
        else:
            arrivals = self._rng.random(self.ms_count) < self._arrival_prob
        created = 0
        for source in np.nonzero(arrivals)[0]:
            packet = Packet(
                pid=self._next_pid,
                source=int(source),
                destination=int(self._traffic.destination[source]),
                created_slot=self._slot,
                holder=int(source),
            )
            self._next_pid += 1
            self._router.on_packet_created(packet)
            self._queues[packet.holder].append(packet)
            created += 1
        return created

    def _transfer(self, packet: Packet, from_node: int, to_node: int) -> None:
        self._queues[from_node].remove(packet)
        packet.holder = to_node
        packet.hops += 1
        self._router.on_transfer(packet, from_node, to_node)
        if self._router.is_delivered(packet):
            packet.state["delivered_slot"] = self._slot
            self._delivered.append(packet)
        else:
            self._queues[to_node].append(packet)

    def step(self) -> None:
        """Advance the simulation by one slot."""
        positions = self._process.step()
        if self._static is not None:
            positions = np.concatenate([positions, self._static])
        self._spawn_packets()
        schedule = self._scheduler.schedule(positions)
        for a, b in schedule.pairs:
            # Each enabled pair serves one packet in each direction
            # (Definition 10 splits the bandwidth symmetrically).
            for holder, peer in ((a, b), (b, a)):
                packet = self._router.select_transfer(
                    self._queues[holder], holder, peer
                )
                if packet is not None:
                    self._transfer(packet, holder, peer)
        moved = self._router.wired_step(self._queues, self._slot)
        queues = self._queues
        # every key is taken before the first removal
        finished = sorted(
            (p for p in moved if self._router.is_delivered(p)),
            key=lambda p: (p.holder, queues[p.holder].index(p)),
        )
        for packet in finished:
            queues[packet.holder].remove(packet)
            packet.state.setdefault("delivered_slot", self._slot)
            self._delivered.append(packet)
        self._slot += 1

    def run(self, slots: int) -> SimulationMetrics:
        """Run ``slots`` further slots and return cumulative metrics."""
        if slots < 1:
            raise ValueError(f"need at least one slot, got {slots}")
        start = time.perf_counter()
        self._prefetch_arrivals(slots)
        try:
            for _ in range(slots):
                self.step()
        finally:
            self._clear_arrivals()
        batch_elapsed = time.perf_counter() - start
        self._elapsed += batch_elapsed
        # One slot_batch event + one DEBUG line per run() call (not per
        # slot): the telemetry overhead stays invisible on the hot path.
        sink = get_telemetry()
        if sink.enabled:
            sink.emit(
                SlotBatch(
                    slots=slots,
                    elapsed_seconds=batch_elapsed,
                    total_slots=self._slot,
                    created=self._next_pid,
                    delivered=len(self._delivered),
                )
            )
        _log.debug(
            "ran %d slot(s) in %.3fs (%.0f slots/s, %d delivered so far)",
            slots,
            batch_elapsed,
            slots / batch_elapsed if batch_elapsed > 0 else float("nan"),
            len(self._delivered),
        )
        return self._metrics()

    def _metrics(self) -> SimulationMetrics:
        """Cumulative metrics over every slot run so far."""
        in_flight = sum(len(queue) for queue in self._queues.values())
        delays = [
            packet.state["delivered_slot"] - packet.created_slot
            for packet in self._delivered
        ]
        hop_counts = [packet.hops for packet in self._delivered]
        return SimulationMetrics(
            slots=self._slot,
            ms_count=self.ms_count,
            created=self._next_pid,
            delivered=len(self._delivered),
            in_flight=in_flight,
            delays=np.array(delays, dtype=float),
            hop_counts=np.array(hop_counts, dtype=float),
            offered_load=self._arrival_prob,
            elapsed_seconds=self._elapsed,
        )
