"""The NoC fabric: physical networks, wiring, stepping and statistics.

The baseline uses *physically separate* request and reply networks (two
:class:`PhysicalNetwork` instances); the virtual-network configurations of
Sections III-B (AVCP) and VII share one physical network and partition its
VCs between the two traffic classes.  :class:`NocFabric` hides that choice
from the endpoints: they enqueue packets on their NIC and the fabric places
them on the right physical network and VC range.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.config.system import NocConfig
from repro.noc.nic import MemoryNodeNic, NodeInterface
from repro.noc.packet import NetKind, Packet
from repro.noc.router import LOCAL_PORT, Router
from repro.noc.routing import RoutingAlgorithm, build_routing
from repro.noc.topology import BaseTopology

#: the physical networks' names, by how many there are
NETWORK_NAMES = {1: ("shared",), 2: ("request", "reply")}


class PhysicalNetwork:
    """One physical network: routers, links and per-link statistics."""

    def __init__(
        self,
        name: str,
        topology: BaseTopology,
        cfg: NocConfig,
        routing: RoutingAlgorithm,
    ) -> None:
        self.name = name
        self.topology = topology
        self.cfg = cfg
        self.routing = routing
        self.vcs = cfg.network_vcs
        #: ``(lo, hi)`` VCs a packet may use here, indexed by ``pkt.net``
        self.vc_ranges = cfg.vc_ranges
        self.bandwidth = cfg.link_flits_per_cycle
        self.escape_vc_active = routing.adaptive
        #: attached telemetry collector (None = disabled; hooks are one
        #: ``is not None`` check each).
        self.telemetry = None
        #: the collector again iff stall attribution is on, else None —
        #: the router arbitration loop gates its per-blocked-VC stall
        #: hooks on this, so enabling tracing without attribution costs
        #: the hot path nothing extra.
        self.stall_tel = None
        #: attached fault controller (None = no fault plan; same single
        #: ``is not None`` gating as telemetry).
        self.faults = None
        #: live link-health mask: directed dead links as (rid, oport).
        #: The controller installs its own set here; the default empty
        #: frozenset keeps the router check a single truthiness test.
        self.fault_down: frozenset = frozenset()
        #: routers currently frozen by a RouterFreeze event.
        self.fault_frozen: frozenset = frozenset()
        self.nics: List[NodeInterface] = []
        #: the fabric's awake NICs (``NocFabric._active_nics``), which a
        #: local-port drain joins
        self.active_nics: set = set()
        port_of = self._port_of = topology.port_of
        self.routers: List[Router] = [
            Router(
                rid,
                self,
                nports=1 + len(ports),
                vcs=self.vcs,
                vc_cap=cfg.vc_depth_flits,
                pipeline=cfg.hop_cycles,
            )
            for rid, ports in enumerate(port_of)
        ]
        # wire downstream pointers (and the reverse upstream pointers the
        # drain-wake credit events need)
        for router, ports in zip(self.routers, port_of):
            for nb, port in ports.items():
                down = self.routers[nb]
                dport = port_of[nb][router.rid]
                router.downstream[port] = down.inputs[dport]
                down.upstream[dport] = router
        #: flits moved per directed link, indexed [rid][oport]
        self.link_flits: List[List[int]] = [r.link_flits for r in self.routers]
        self.packets_delivered = 0
        self.flits_delivered = 0
        self.cycles = 0
        #: delivered packet counts per message type (int value of MessageType)
        self.delivered_by_type: Dict[int, int] = {}
        # -- active-set scheduling state --------------------------------
        #: routers that must be arbitrated this cycle (exact, not a scan)
        self._active_ids: set = set()
        #: min-heap of (cycle, rid) wake-ups for routers sleeping through
        #: a known pipeline dwell
        self._wakes: List[Tuple[int, int]] = []
        self.set_route_tables()

    # -- routing tables -------------------------------------------------

    def set_route_tables(
        self, detour: Optional[List[List[int]]] = None
    ) -> None:
        """Route on the topology's dimension-order tables for the
        configured request / reply orders, or — while links are down —
        on one ``detour`` table (``table[rid][dst] -> port``) for both.

        ``_dor_tables[pkt.net][rid][dst]`` is the port the escape-VC check
        always uses.  When the configured policy is deterministic (CDR),
        or links are down, the same tables back ``route`` directly,
        turning the per-flit topology walk into two list lookups; an
        adaptive policy is suspended while a detour is installed, since
        its minimal-path choice sets cannot see the health mask.
        """
        if detour is None:
            topo, cfg = self.topology, self.cfg
            self._dor_tables = (
                topo.dor_ports(cfg.request_order),
                topo.dor_ports(cfg.reply_order),
            )
            adaptive = self.routing.adaptive
        else:
            self._dor_tables = (detour, detour)
            adaptive = False
        self._det_tables = None if adaptive else self._dor_tables

    # -- hooks used by routers -----------------------------------------

    def route(self, router: Router, pkt: Packet) -> int:
        """Output port for ``pkt`` at ``router`` (LOCAL_PORT = ejection)."""
        tables = self._det_tables
        if tables is not None:
            return tables[pkt.net][router.rid][pkt.dst]
        if pkt.dst == router.rid:
            return LOCAL_PORT
        nxt = self.routing.next_hop(self, router.rid, pkt)
        return self._port_of[router.rid][nxt]

    def dor_port(self, router: Router, pkt: Packet) -> int:
        return self._dor_tables[pkt.net][router.rid][pkt.dst]

    def downstream_free(self, cur: int, nxt: int) -> int:
        """Free buffer flits at ``nxt``'s input port fed by ``cur`` (the
        adaptive policies' congestion metric)."""
        down = self.routers[nxt]
        row = down.inputs[self._port_of[nxt][cur]]
        return down.vc_cap * down.vcs - sum(ivc.occ for ivc in row)

    def eject_flit(self, rid: int, pkt: Packet, is_tail: bool, cycle: int) -> None:
        if is_tail:
            fa = self.faults
            if fa is not None and fa.discard_on_eject(pkt, rid, cycle):
                # CRC check failed: the packet is consumed without being
                # delivered; the requester's retransmit guard answers it
                return
            pkt.delivered = cycle
            self.packets_delivered += 1
            self.flits_delivered += pkt.size_flits
            key = int(pkt.mtype)
            self.delivered_by_type[key] = self.delivered_by_type.get(key, 0) + 1
            if self.telemetry is not None:
                self.telemetry.on_deliver(pkt, cycle)
            self.nics[rid].deliver(pkt, cycle)

    # -- stepping and statistics ----------------------------------------

    def mark_router_active(self, rid: int) -> None:
        """Schedule a router for arbitration from the next pass on (called
        on every wake event: flit arrival, credit drain, gate reopening)."""
        self._active_ids.add(rid)

    def schedule_wake(self, at: int, rid: int) -> None:
        """Arm a timed wake for a sleeping router at cycle ``at``.

        A router keeps at most one armed heap entry at its earliest wake
        cycle; later wake requests are covered by the armed entry (the
        woken arbitration pass re-sleeps with the then-earliest cycle).
        """
        router = self.routers[rid]
        armed = router.wake_armed
        if 0 <= armed <= at:
            return
        heappush(self._wakes, (at, rid))
        router.wake_armed = at

    def begin_cycle(self, cycle: int) -> None:
        """Count the cycle and wake routers whose pipeline dwell ends."""
        self.cycles += 1
        wakes = self._wakes
        while wakes and wakes[0][0] <= cycle:
            rid = heappop(wakes)[1]
            self._active_ids.add(rid)
            self.routers[rid].wake_armed = -1

    def decide(self, cycle: int, moves: List) -> None:
        """One arbitration pass over the awake routers, in router-id order
        (which is the order ``moves`` are later committed in).

        A router whose pass found every head worm waiting on a future
        event leaves the active set until that event's wake: a flit
        arrival, a credit drain, a reopened ejection gate, or the
        earliest pipeline-ready cycle.
        """
        ids = self._active_ids
        if not ids:
            return
        routers = self.routers
        frozen = self.fault_frozen
        # saturated: all rids, already sorted
        order = range(len(routers)) if len(ids) == len(routers) else sorted(ids)
        for rid in order:
            if frozen and rid in frozen:
                # frozen router: buffers hold their flits, nothing
                # arbitrates; stays in the active set for the thaw
                continue
            router = routers[rid]
            if not router.active:
                ids.discard(rid)
                continue
            router.decide(cycle, self, moves)
            if not router.rescan:
                ids.discard(rid)
                if router.wake_at >= 0:
                    self.schedule_wake(router.wake_at, rid)

    def link_utilization(self, rid: int, oport: int) -> float:
        """Fraction of cycles the directed link out of ``(rid, oport)``
        carried a flit (normalised by the link's flit bandwidth)."""
        if self.cycles == 0:
            return 0.0
        return self.link_flits[rid][oport] / (self.cycles * self.bandwidth)

    def buffered_flits(self) -> int:
        return sum(r.buffered_flits() for r in self.routers)

    def total_flits_routed(self) -> int:
        return sum(r.flits_routed for r in self.routers)


class NocFabric:
    """Request + reply networks plus the per-node NICs."""

    def __init__(
        self,
        topology: BaseTopology,
        cfg: NocConfig,
        mem_nodes: Tuple[int, ...] = (),
    ) -> None:
        self.topology = topology
        self.cfg = cfg
        self.separate_networks = cfg.separate_physical_networks
        self.bandwidth = cfg.link_flits_per_cycle
        routing = build_routing(topology, cfg)
        self.routing = routing
        #: the distinct physical networks, in deterministic stepping order
        self._net_list: Tuple[PhysicalNetwork, ...] = tuple(
            PhysicalNetwork(name, topology, cfg, routing)
            for name in NETWORK_NAMES[cfg.physical_networks]
        )
        self.request_net, self.reply_net = self._net_list[0], self._net_list[-1]
        self._nets = {
            NetKind.REQUEST: self.request_net,
            NetKind.REPLY: self.reply_net,
        }
        self._vc_ranges = cfg.vc_ranges
        mem_set = set(mem_nodes)
        self.nics: List[NodeInterface] = []
        for node in range(topology.n):
            if node in mem_set:
                nic: NodeInterface = MemoryNodeNic(
                    node,
                    self,
                    queue_packets=cfg.node_injection_queue_packets,
                    reply_buffer_flits=cfg.mem_injection_buffer_flits,
                )
            else:
                nic = NodeInterface(
                    node, self, queue_packets=cfg.node_injection_queue_packets
                )
            self.nics.append(nic)
        #: NICs that may move a flit: one that moved none sleeps until a
        #: local-port drain or a first ``try_send``; memory-node NICs stay
        #: pinned for their per-cycle accounting and delegation trigger.
        self._active_nics: set = set(mem_set)
        for net in self._net_list:
            net.nics = self.nics
            net.active_nics = self._active_nics
        for nic in self.nics:
            nic._local = {
                kind: net.routers[nic.node_id].inputs[LOCAL_PORT]
                for kind, net in self._nets.items()
            }
        #: attached telemetry collector (None = disabled).
        self.telemetry = None
        #: attached fault controller (None = no fault plan installed).
        self.faults = None

    # -- telemetry ------------------------------------------------------

    def attach_telemetry(self, collector) -> None:
        """Point every hook site (NICs, networks) at ``collector``.

        Telemetry is read-only instrumentation: attaching it must never
        change simulation behaviour, only observe it.
        """
        self.telemetry = collector
        stall_tel = (
            collector if getattr(collector, "stalls", None) is not None
            else None
        )
        for nic in self.nics:
            nic.telemetry = collector
        for net in self._net_list:
            net.telemetry = collector
            net.stall_tel = stall_tel

    # -- endpoint API ---------------------------------------------------

    def nic(self, node: int) -> NodeInterface:
        return self.nics[node]

    def router_for(self, node: int, net: NetKind) -> Router:
        return self._nets[net].routers[node]

    def vc_range_for(self, pkt: Packet) -> Tuple[int, int]:
        return self._vc_ranges[pkt.net]

    # -- simulation -----------------------------------------------------

    def mark_nic_active(self, node: int) -> None:
        """Schedule a NIC for injection stepping (called on enqueue)."""
        self._active_nics.add(node)

    def wake_node_routers(self, node: int) -> None:
        """Re-arbitrate ``node``'s local routers (ejection-gate reopened)."""
        for net in self._net_list:
            if node not in net._active_ids and net.routers[node].active:
                net.mark_router_active(node)

    def step(self, cycle: int) -> None:
        """Advance the fabric one cycle (DESIGN.md, "Per-cycle NoC
        contract"): up to ``bandwidth`` decide-then-commit passes over the
        routers, then NIC injection in node order.

        Within a pass every awake router of every network arbitrates
        against the start-of-pass state and only then are the chosen moves
        applied, in (network, router id, winner key) order — so a flit
        advances at most one hop per pass and a credit freed in one pass
        is first spendable in the next, whatever the router numbering.
        """
        nets = self._net_list
        for net in nets:
            net.begin_cycle(cycle)
        moves: List = []
        for _ in range(self.bandwidth):
            for net in nets:
                net.decide(cycle, moves)
            if not moves:
                break
            for router, ivc, oport in moves:
                router._move_flit(ivc, oport, cycle)
            del moves[:]
        active = self._active_nics
        nics = self.nics
        for node in sorted(active):
            if not nics[node].inject_step(cycle):
                active.discard(node)

    def in_flight_flits(self) -> int:
        """Flits buffered in routers (conservation checks in tests)."""
        return sum(net.buffered_flits() for net in self._net_list)
