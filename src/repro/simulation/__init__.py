"""Network assembly, traffic, flow analysis, and the packet-level simulator."""

from .engine import Packet, PacketRouter, SlottedSimulator
from .maxflow import LinkCapacityGraph, session_max_flow, uniform_rate_bound
from .metrics import SimulationMetrics
from .network import HybridNetwork
from .routers import SchemeARouter, SchemeBRouter, TwoHopRelayRouter
from .traffic import PermutationTraffic, permutation_traffic

__all__ = [
    "HybridNetwork",
    "PermutationTraffic",
    "permutation_traffic",
    "SlottedSimulator",
    "Packet",
    "PacketRouter",
    "SimulationMetrics",
    "LinkCapacityGraph",
    "session_max_flow",
    "uniform_rate_bound",
    "SchemeARouter",
    "SchemeBRouter",
    "TwoHopRelayRouter",
]
