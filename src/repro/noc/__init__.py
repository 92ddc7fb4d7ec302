"""Cycle-level wormhole Network-on-Chip simulator.

Implements the paper's NoC substrate: flit-level wormhole flow control with
virtual channels and credit-based backpressure, physically separate (or
virtual) request/reply networks, CPU-over-GPU priority, CDR and adaptive
routing, and the mesh / crossbar / flattened-butterfly / Dragonfly
topologies.
"""

from repro.noc.analysis import (
    LinkLoad,
    hottest_links,
    link_loads,
    link_utilization_summary,
    render_mesh_heatmap,
)
from repro.noc.network import NocFabric, PhysicalNetwork
from repro.noc.nic import MemoryNodeNic, NodeInterface
from repro.noc.packet import (
    MessageType,
    NetKind,
    Packet,
    REQUEST_NET_TYPES,
    TrafficClass,
)
from repro.noc.router import LOCAL_PORT, Router
from repro.noc.routing import (
    DyXYRouting,
    FootprintRouting,
    HARERouting,
    RoutingAlgorithm,
    build_routing,
)
from repro.noc.topology import (
    BaseTopology,
    CrossbarTopology,
    DragonflyTopology,
    FlattenedButterflyTopology,
    MeshTopology,
    build_topology,
)

__all__ = [
    "BaseTopology",
    "LinkLoad",
    "hottest_links",
    "link_loads",
    "link_utilization_summary",
    "render_mesh_heatmap",
    "CrossbarTopology",
    "DragonflyTopology",
    "DyXYRouting",
    "FlattenedButterflyTopology",
    "FootprintRouting",
    "HARERouting",
    "LOCAL_PORT",
    "MemoryNodeNic",
    "MeshTopology",
    "MessageType",
    "NetKind",
    "NocFabric",
    "NodeInterface",
    "Packet",
    "PhysicalNetwork",
    "REQUEST_NET_TYPES",
    "Router",
    "RoutingAlgorithm",
    "TrafficClass",
    "build_routing",
    "build_topology",
]
