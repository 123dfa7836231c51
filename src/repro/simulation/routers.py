"""Packet routers for the slotted simulator.

Three forwarding disciplines:

- :class:`SchemeARouter` -- squarelet Manhattan relaying (Definition 11);
- :class:`TwoHopRelayRouter` -- the classical Grossglauser-Tse two-hop relay
  (source hands each packet to the first node met; the relay delivers on
  meeting the destination), included as the mobility baseline;
- :class:`SchemeBRouter` -- three-phase BS-assisted forwarding
  (Definition 12) with an explicit wired backbone step of per-edge capacity
  ``c`` packets/slot (fractional capacities accumulate as credit).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..geometry.tessellation import SquareTessellation
from ..infrastructure.backbone import Backbone
from .engine import Packet, PacketRouter

__all__ = ["SchemeARouter", "TwoHopRelayRouter", "SchemeBRouter"]


class SchemeARouter(PacketRouter):
    """Squarelet-by-squarelet Manhattan relaying between home-point neighbours.

    A packet's plan is the cell route from the source's home squarelet to the
    destination's; the packet advances when the holder is scheduled with a
    node whose *home-point* lies in the next squarelet of the plan, and is
    delivered opportunistically whenever the holder meets the destination.
    """

    def __init__(self, tessellation: SquareTessellation, home_cells: np.ndarray):
        self._tess = tessellation
        self._home_cell = np.asarray(home_cells, dtype=int)

    def on_packet_created(self, packet: Packet) -> None:
        route = self._tess.manhattan_route(
            int(self._home_cell[packet.source]),
            int(self._home_cell[packet.destination]),
        )
        packet.state["route"] = route
        packet.state["index"] = 0

    def _next_cell(self, packet: Packet) -> Optional[int]:
        route, index = packet.state["route"], packet.state["index"]
        if index + 1 < len(route):
            return route[index + 1]
        return None

    def select_transfer(
        self, queue: List[Packet], holder: int, peer: int
    ) -> Optional[Packet]:
        if peer >= self._home_cell.shape[0]:
            return None  # BSs play no role in scheme A
        for packet in queue:
            if peer == packet.destination:
                return packet
            next_cell = self._next_cell(packet)
            if next_cell is not None and self._home_cell[peer] == next_cell:
                return packet
        return None

    def on_transfer(self, packet: Packet, from_node: int, to_node: int) -> None:
        if to_node == packet.destination:
            return
        next_cell = self._next_cell(packet)
        if next_cell is not None and self._home_cell[to_node] == next_cell:
            packet.state["index"] += 1


class TwoHopRelayRouter(PacketRouter):
    """Grossglauser-Tse two-hop relay: source -> any relay -> destination."""

    def __init__(self, ms_count: int, relay_queue_limit: int = 64):
        if ms_count < 2:
            raise ValueError(f"need at least two MSs, got {ms_count}")
        self._ms_count = ms_count
        self._relay_queue_limit = relay_queue_limit

    def select_transfer(
        self, queue: List[Packet], holder: int, peer: int
    ) -> Optional[Packet]:
        if peer >= self._ms_count:
            return None
        # Deliver first: any packet destined for the peer.
        for packet in queue:
            if packet.destination == peer:
                return packet
        # Otherwise the source may hand one fresh packet to the peer as relay.
        for packet in queue:
            if packet.holder == packet.source and packet.hops == 0:
                return packet
        return None


class SchemeBRouter(PacketRouter):
    """Three-phase BS-assisted forwarding with an explicit wired backbone.

    Phase I: an MS uploads to any scheduled BS of its own zone.  Phase II:
    the packet rides the backbone toward a BS of the destination zone, each
    wire moving ``c`` packets per slot (fractional ``c`` accrues as credit).
    Phase III: a destination-zone BS delivers when scheduled with the
    destination MS.
    """

    def __init__(
        self,
        ms_zone: np.ndarray,
        bs_zone: np.ndarray,
        backbone: Backbone,
        rng: np.random.Generator,
        preferred_bs: np.ndarray = None,
    ):
        self._ms_zone = np.asarray(ms_zone, dtype=int)
        self._bs_zone = np.asarray(bs_zone, dtype=int)
        self._backbone = backbone
        self._rng = rng
        # scheme C's TDMA only ever pairs an MS with its attached BS, so the
        # wired phase must deliver to exactly that BS; under S* access any
        # destination-zone BS can meet the MS and random targeting is fine
        self._preferred_bs = (
            None if preferred_bs is None else np.asarray(preferred_bs, dtype=int)
        )
        self._n = self._ms_zone.shape[0]
        self._bs_by_zone: Dict[int, np.ndarray] = {
            int(zone): np.nonzero(self._bs_zone == zone)[0]
            for zone in np.unique(self._bs_zone)
        }
        self._credit: Dict[tuple, float] = {}
        self._credit_slot: Dict[tuple, int] = {}

    def _is_bs(self, node: int) -> bool:
        return node >= self._n

    def _bs_index(self, node: int) -> int:
        return node - self._n

    def select_transfer(
        self, queue: List[Packet], holder: int, peer: int
    ) -> Optional[Packet]:
        if not self._is_bs(holder):
            # Phase I: MS uplink to a same-zone BS (or direct delivery).
            for packet in queue:
                if peer == packet.destination:
                    return packet
            if self._is_bs(peer):
                peer_zone = self._bs_zone[self._bs_index(peer)]
                for packet in queue:
                    if packet.holder == packet.source and (
                        self._ms_zone[packet.source] == peer_zone
                    ):
                        return packet
            return None
        # Phase III: BS downlink to the destination MS.
        if self._is_bs(peer):
            return None  # BS-BS transport is wired, not wireless
        for packet in queue:
            if packet.destination == peer:
                holder_zone = self._bs_zone[self._bs_index(holder)]
                if self._ms_zone[peer] == holder_zone:
                    return packet
                if self._preferred_bs is not None and (
                    self._preferred_bs[peer] == self._bs_index(holder)
                ):
                    return packet
        return None

    def _edge_credit(self, edge: tuple, slot: int) -> float:
        """Lazy per-wire token bucket: ``c`` tokens accrue per slot, capped at
        one packet so idle wires cannot bank unbounded bursts."""
        last = self._credit_slot.get(edge)
        credit = self._credit.get(edge, 0.0)
        if last is None:
            credit = max(self._backbone.edge_capacity, credit)
        else:
            credit += self._backbone.edge_capacity * (slot - last)
        credit = min(credit, max(1.0, self._backbone.edge_capacity))
        self._credit_slot[edge] = slot
        self._credit[edge] = credit
        return credit

    def wired_step(self, queues: Dict[int, List[Packet]], slot: int) -> List[Packet]:
        """Move queued packets BS -> BS toward their destination zone.

        Returns the moved packets.  Each lands on a BS while every
        destination is an MS, so none is delivered here.
        """
        moved: List[Packet] = []
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
