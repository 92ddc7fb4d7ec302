"""Per-link offered load derivation from routing tables and traffic split.

The surrogate never simulates packets.  Instead it enumerates the
*flow groups* a workload mix produces — CPU read requests to the memory
nodes, GPU read/write requests, the reply streams back, and under
Delegated Replies the delegated-request and core-to-core reply detours —
and walks each (src, dst) pair's route on the very next-hop tables the
fabric routes on (:func:`~repro.noc.routing.route_tables`).  Each
traversal deposits the group's packet size on every directed link of the
path, including the single injection and ejection links every node owns
— the paper's "one reply link per memory node" bottleneck falls out of
this bookkeeping rather than being special cased.

Routes depend only on the config, so a :class:`NetworkModel` is built
once per prediction and each flow group is reduced to a sparse
``link -> expected traversals`` vector.  The fixed-point iteration in
:mod:`repro.model.compose` then rescales group rates dozens of times
without ever walking a route again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.config.system import SystemConfig
from repro.noc.packet import NetKind, TrafficClass
from repro.noc.routing import route_path, route_tables
from repro.noc.topology import BaseTopology, build_topology
from repro.sim.layout import NodePlacement, build_layout

#: directed-link key: ("link", net, a, b) for router a -> b,
#: ("inj", net, node) / ("ej", net, node) for the endpoint links.
LinkKey = Tuple


@dataclass
class FlowGroup:
    """One homogeneous traffic stream (e.g. all GPU read requests).

    ``rate`` is the total packets/cycle of the whole group; ``counts``
    maps each directed link to the expected number of traversals by one
    packet of the group (pair weights sum to one), so the link load the
    group induces is ``rate * counts[link]``.
    """

    name: str
    cls: TrafficClass
    net: NetKind
    flits: int
    counts: Dict[LinkKey, float] = field(default_factory=dict)
    mean_hops: float = 0.0
    rate: float = 0.0


class NetworkModel:
    """Routes, link inventory and flow groups for one configuration."""

    def __init__(self, cfg: SystemConfig) -> None:
        self.cfg = cfg
        self.noc = cfg.noc
        self.topology: BaseTopology = build_topology(
            cfg.noc.topology, cfg.mesh_width, cfg.mesh_height
        )
        self.placement: NodePlacement = build_layout(cfg)
        self.bandwidth = cfg.noc.link_flits_per_cycle
        #: head-flit cycles spent per hop (router pipeline + link), the
        #: same constant the router model is built with.
        self.hop_cycles = cfg.noc.hop_cycles
        self.tables = route_tables(self.topology, cfg.noc)

    # -- flow groups ------------------------------------------------------

    def flow_group(
        self,
        name: str,
        pairs: Sequence[Tuple[int, int, float]],
        cls: TrafficClass,
        net: NetKind,
        flits: int,
    ) -> FlowGroup:
        """Build a flow group from weighted (src, dst, weight) pairs."""
        group = FlowGroup(name=name, cls=cls, net=net, flits=flits)
        # physical network index: shared-network configs collapse to 0
        phys = int(net) if self.noc.separate_physical_networks else 0
        total_w = sum(w for _, _, w in pairs) or 1.0
        counts = group.counts
        hops = 0.0
        for src, dst, w in pairs:
            if src == dst or w <= 0.0:
                continue
            w /= total_w
            path = route_path(self.topology, self.tables[net], src, dst)
            counts[("inj", phys, src)] = counts.get(("inj", phys, src), 0.0) + w
            for a, b in zip(path, path[1:]):
                k = ("link", phys, a, b)
                counts[k] = counts.get(k, 0.0) + w
            counts[("ej", phys, dst)] = counts.get(("ej", phys, dst), 0.0) + w
            hops += w * (len(path) - 1)
        group.mean_hops = hops
        return group

    def uniform_pairs(
        self, sources: Iterable[int], dests: Iterable[int]
    ) -> List[Tuple[int, int, float]]:
        """Every (src, dst) pair weighted uniformly (self-pairs skipped).

        Uniform destinations model the :class:`~repro.mem.address.AddressMap`
        hash spreading blocks evenly over the memory nodes, and delegation
        pointers landing on an arbitrary sharer.
        """
        src_list, dst_list = list(sources), list(dests)
        return [
            (s, d, 1.0)
            for s in src_list
            for d in dst_list
            if s != d
        ]

    def service_cycles(self, flits: int) -> float:
        """Link occupancy of one worm: flits at ``bandwidth`` flits/cycle."""
        return max(1.0, flits / self.bandwidth)

