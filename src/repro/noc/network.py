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
from repro.noc.nic import InjectRow, MemoryNodeNic, NodeInterface
from repro.noc.packet import Packet
from repro.noc.router import (
    CREDIT, EJECT, LOCAL_PORT, PIPELINE, ROUTE, SERIALIZATION, SWITCH, VC_ALLOC,
    InputVC, Router, _AVAIL, _PKT, _READY,
)
from repro.noc.routing import RoutingAlgorithm, build_routing, route_tables
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
        routing: Optional[RoutingAlgorithm],
    ) -> None:
        self.name = name
        self.topology = topology
        self.cfg = cfg
        self.routing = routing
        self.vcs = cfg.network_vcs
        #: ``(lo, hi)`` VCs a packet may use here, indexed by ``pkt.net``
        self.vc_ranges = cfg.vc_ranges
        self.bandwidth = cfg.link_flits_per_cycle
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
        self.set_route_tables(route_tables(topology, cfg), routing)

    # -- routing tables -------------------------------------------------

    def set_route_tables(self, tables, policy=None) -> None:
        """Route on ``tables[pkt.net][rid][dst] -> port`` from ``route_tables``,
        or on a ``policy``'s ``next_hop``: the configured adaptive scheme, whose
        escape VC takes the table's hop, or a fault controller's table switch."""
        self.tables = tables
        self._policy = policy
        self.escape_vc_active = policy is not None and policy is self.routing

    # -- hooks used by the routing policies and blame ------------------

    def dor_port(self, rid: int, pkt: Packet) -> int:
        """The table's port for ``pkt`` at router ``rid`` (the escape-VC route)."""
        return self.tables[pkt.net][rid][pkt.dst]

    def downstream_free(self, cur: int, nxt: int) -> int:
        """Free buffer flits at ``nxt``'s input port fed by ``cur`` (the
        adaptive policies' congestion metric)."""
        down = self.routers[nxt]
        row = down.inputs[self._port_of[nxt][cur]]
        return down.vc_cap * down.vcs - sum(ivc.occ for ivc in row)

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
        """The *decide* half of the per-cycle contract (DESIGN.md §6.1) and
        the only place the object kernel arbitrates: every awake router, in
        router-id order, arbitrates against the state the previous pass
        left and appends its moving input VCs to ``moves``, which the
        fabric hands to ``commit`` afterwards.  VC allocations
        (``InputVC.out``) persist even when the worm loses the switch.

        A router with no candidate leaves the active set until the event
        that can change that (§6.2): the earliest pipeline-ready cycle, or
        ``accept``, a drain-wake in ``commit`` or
        ``notify_eject_ready``; a dead link or an adaptive
        re-route keeps it awake.  A blocked head is reported (``on_stall``)
        only when its class differs from ``InputVC.stall``.
        """
        ids = self._active_ids
        if not ids:
            return
        routers = self.routers
        frozen = self.fault_frozen
        tel = self.stall_tel
        fa = self.faults
        down = self.fault_down
        tables = self.tables
        policy = self._policy
        escape = self.escape_vc_active
        vc_ranges = self.vc_ranges
        nics = self.nics
        port_of = self._port_of
        # saturated: all rids, already sorted
        order = range(len(routers)) if len(ids) == len(routers) else sorted(ids)
        for rid in order:
            if frozen and rid in frozen:
                # frozen router: buffers hold their flits, nothing
                # arbitrates; stays in the active set for the thaw
                continue
            router = routers[rid]
            active = router.active
            if not active:
                ids.discard(rid)
                continue
            cap = router.vc_cap
            # the lone candidate; from the second on, every candidate in
            # ``cands`` and its key in ``keys``, inserted in key order
            first = None
            first_key = 0
            cands = keys = None
            rescan = False
            wake_at = -1
            for ivc in active:
                pkt, avail, ready, key = ivc.q[0]
                if avail == 0:
                    if tel is not None and ivc.stall != SERIALIZATION:
                        tel.on_stall(ivc, pkt, SERIALIZATION, cycle)
                    continue  # waiting for upstream flits; accept wakes us
                if cycle < ready:
                    if wake_at < 0 or ready < wake_at:
                        wake_at = ready  # pipeline dwell: wake exactly then
                    if tel is not None and ivc.stall != PIPELINE:
                        tel.on_stall(ivc, pkt, PIPELINE, cycle)
                    continue
                oport = ivc.route_out
                if oport < 0:
                    if policy is None or pkt.dst == rid:
                        oport = tables[pkt.net][rid][pkt.dst]
                    else:  # the adaptive choice
                        oport = port_of[rid][policy.next_hop(self, rid, pkt)]
                    ivc.route_out = oport
                if oport == LOCAL_PORT:
                    # ejection: gate new worms on endpoint acceptance.  A
                    # closed gate is sleepable: the endpoint calls
                    # notify_eject_ready when it drains the capacity the
                    # gate was refusing on.
                    if ivc.sent == 0 and not nics[rid].can_eject(pkt):
                        if tel is not None and ivc.stall != EJECT:
                            tel.on_stall(ivc, pkt, EJECT, cycle)
                        continue
                else:
                    dvc = ivc.out
                    if fa is not None and (rid, oport) in down:
                        # chosen link is down: hold the worm here and,
                        # unless a VC is already allocated on it, allow a
                        # re-route so the detour tables take over next cycle
                        if dvc is None:
                            ivc.route_out = -1
                        rescan = True
                        if tel is not None and ivc.stall != ROUTE:
                            tel.on_stall(ivc, pkt, ROUTE, cycle)
                        continue
                    if dvc is not None:
                        # established worm: credit + write lock
                        if dvc.occ >= cap:
                            if tel is not None and ivc.stall != CREDIT:
                                tel.on_stall(ivc, pkt, CREDIT, cycle)
                            continue  # credit stall: downstream drain wakes us
                        owner = dvc.owner
                        if owner is not None and owner is not pkt:
                            if tel is not None and ivc.stall != VC_ALLOC:
                                tel.on_stall(ivc, pkt, VC_ALLOC, cycle)
                            continue  # lock holder streams from *this*
                            # router: its tail (our move) or a drain wakes us
                    else:
                        # VC allocation: the lowest VC of the packet's
                        # range with no owner and a free slot; the first
                        # is reserved for dimension-order hops under
                        # adaptive routing (escape VC)
                        vlo, vhi = vc_ranges[pkt.net]
                        if escape and oport != tables[pkt.net][rid][pkt.dst]:
                            vlo += 1
                        for dvc in router.downstream[oport][vlo:vhi]:
                            if dvc.owner is None and dvc.occ < cap:
                                ivc.out = dvc
                                break
                        else:
                            if escape:
                                # adaptive choice stuck before VC
                                # allocation: allow a re-route next cycle
                                # so the escape (DOR) path stays reachable
                                # (deadlock freedom)
                                ivc.route_out = -1
                                rescan = True
                            if tel is not None and ivc.stall != VC_ALLOC:
                                tel.on_stall(ivc, pkt, VC_ALLOC, cycle)
                            continue  # every candidate VC is held by our
                            # own worms or credit-full: a drain or our own
                            # tail delivery wakes us
                if first is None:
                    first, first_key = ivc, key
                elif cands is None:
                    if key < first_key:
                        cands, keys = [ivc, first], [key, first_key]
                    else:
                        cands, keys = [first, ivc], [first_key, key]
                else:
                    # behind every key not above it: equal keys (one
                    # packet in two VCs of a router) keep active order
                    i = len(keys)
                    while i and keys[i - 1] > key:
                        i -= 1
                    keys.insert(i, key)
                    cands.insert(i, ivc)
            if first is None:
                if not rescan:
                    ids.discard(rid)
                    if wake_at >= 0:
                        self.schedule_wake(wake_at, rid)
                continue
            if cands is None:
                moves.append(first)  # a lone candidate wins unopposed
                continue
            # the crossbar moves at most one flit per output and one per
            # input port a pass (Section II's switch constraints)
            start = len(moves)
            outs = ins = 0
            for ivc in cands:
                bit = 1 << ivc.route_out
                if outs & bit:
                    continue
                outs |= bit
                bit = 1 << ivc.port
                if ins & bit:
                    continue
                ins |= bit
                moves.append(ivc)
            if tel is not None:
                # every candidate that does not move lost switch
                # allocation to a higher-priority worm (or to per-input
                # uniqueness), so each blocked head is billed one class
                moved = moves[start:]
                for ivc in cands:
                    if ivc.stall != SWITCH and ivc not in moved:
                        tel.on_stall(ivc, ivc.q[0][0], SWITCH, cycle)

    def commit(self, moves: List[InputVC], cycle: int) -> None:
        """The *commit* half of the per-cycle contract (DESIGN.md §6.1) and
        the only place a flit leaves an input VC: one flit of each moving
        VC's head worm, in ``decide``'s order, leaves through
        ``ivc.route_out``.  A header enters its downstream VC through
        ``accept``; a body flit is credited in line into its worm's entry,
        which is the last one there while the worm owns that VC."""
        ids = self._active_ids
        active_nics = self.active_nics
        fa = self.faults
        for ivc in moves:
            router = ivc.router
            klass = ivc.stall
            if klass >= 0:  # close the open stall record: charge its span
                ivc.stall_row[klass] += cycle - ivc.stall_since
                ivc.stall = -1
            q = ivc.q
            head = q[0]
            pkt: Packet = head[_PKT]
            head[_AVAIL] -= 1
            ivc.occ -= 1
            nsent = ivc.sent + 1
            router.flits_routed += 1
            # drain-wake: freeing a buffer slot is the credit event the
            # (unique) upstream feeder of this input port may be sleeping
            # on — a router, or for the local port this node's NIC
            up = router.upstream[ivc.port]
            if up is None:
                active_nics.add(router.rid)
            elif up.active and up.rid not in ids:
                ids.add(up.rid)
            is_tail = nsent == pkt.size_flits
            oport = ivc.route_out
            if oport == LOCAL_PORT:
                # the tail delivers; a packet that fails the CRC check at
                # ejection is consumed undelivered, and the requester's
                # retransmit guard answers it
                if is_tail and (
                    fa is None or not fa.discard_on_eject(pkt, router.rid, cycle)
                ):
                    pkt.delivered = cycle
                    self.packets_delivered += 1
                    self.flits_delivered += pkt.size_flits
                    key = int(pkt.mtype)
                    by_type = self.delivered_by_type
                    by_type[key] = by_type.get(key, 0) + 1
                    if self.telemetry is not None:
                        self.telemetry.on_deliver(pkt, cycle)
                    self.nics[router.rid].deliver(pkt, cycle)
            else:
                dvc = ivc.out
                if nsent == 1:
                    self.accept(dvc, pkt, is_tail, cycle)
                    if fa is not None:
                        fa.on_link_head(self, router.rid, oport, pkt)
                else:
                    # ``accept``'s body branch and arrival wake, in line
                    dq = dvc.q
                    dq[-1][_AVAIL] += 1
                    dvc.occ += 1
                    if is_tail:
                        dvc.owner = None
                    down = dvc.router
                    if down.rid not in ids:
                        ready = dq[0][_READY]
                        if ready > cycle:
                            armed = down.wake_armed
                            if armed < 0 or armed > ready:
                                self.schedule_wake(ready, down.rid)
                        else:
                            ids.add(down.rid)
                router.link_flits[oport] += 1
            if is_tail:
                pkt.hops += 1
                q.popleft()
                ivc.route_out = -1
                ivc.out = None
                ivc.sent = 0
                if not q:
                    router.active.pop(ivc, None)
            else:
                ivc.sent = nsent

    def accept(self, ivc: InputVC, pkt: Packet, is_tail: bool, cycle: int) -> None:
        """Receive one flit of ``pkt`` into input VC ``ivc``: the one entry
        for a header arriving from a neighbour and for every flit a NIC
        injects (``commit`` copies the body branch and the arrival wake
        for a neighbour's body flit: keep the two in step)."""
        router = ivc.router
        q = ivc.q
        if ivc.owner is pkt:
            # body flit: the worm's entry stays (last) in the queue until
            # its tail has been forwarded, drained or not
            q[-1][_AVAIL] += 1
        else:
            # header flit of a new worm in this VC
            q.append([pkt, 1, cycle + router.pipeline, (pkt.cls << 48) | pkt.pid])
            ivc.owner = pkt
            router.active[ivc] = None
            # telemetry: head arrival (once per worm, at its destination
            # router only) and the pipeline-dwell stall record.  The dwell
            # record opens *here*, not in arbitration: the router sleeps
            # through the dwell on a timed wake and would otherwise never
            # observe it, while a router kept awake sees it in every pass
            # — opening at arrival keeps both charges equal.
            # The worm is first visible to per-cycle accounting at cycle+1.
            tel = self.telemetry
            if tel is not None and pkt.dst == router.rid:
                tel.on_head(pkt, cycle)
            stel = self.stall_tel
            if stel is not None and router.pipeline and len(q) == 1:
                stel.on_stall(ivc, pkt, PIPELINE, cycle + 1)
        ivc.occ += 1
        if is_tail:
            ivc.owner = None
        # every arriving flit is a wake-up event for the scheduler: it may
        # unblock a head worm that was waiting for upstream flits (inline
        # membership guard — the receiver is usually awake already).  While
        # the head worm is still dwelling in the router pipeline nothing
        # can move before its ready cycle, so arrivals during the dwell arm
        # a timed wake instead of forcing a no-op arbitration pass per flit.
        rid = router.rid
        if rid not in self._active_ids:
            ready = q[0][_READY]
            if ready > cycle:
                armed = router.wake_armed
                if armed < 0 or armed > ready:
                    self.schedule_wake(ready, rid)
            else:
                self._active_ids.add(rid)

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
        #: the distinct physical networks, in deterministic stepping order
        self._net_list: Tuple[PhysicalNetwork, ...] = tuple(
            PhysicalNetwork(name, topology, cfg, routing)
            for name in NETWORK_NAMES[cfg.physical_networks]
        )
        self.request_net, self.reply_net = self._net_list[0], self._net_list[-1]
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
        for nic in self.nics:  # rows indexed by the kind, as ``vc_ranges``
            routers = (self.request_net.routers[nic.node_id],
                       self.reply_net.routers[nic.node_id])
            nic.rows = tuple(
                InjectRow(r.inputs[LOCAL_PORT][lo:hi], r, r.net, r.vc_cap)
                for r, (lo, hi) in zip(routers, cfg.vc_ranges))
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
        applied, in (network, router id, key) order — so a flit
        advances at most one hop per pass and a credit freed in one pass
        is first spendable in the next, whatever the router numbering.
        """
        passes: List[Tuple[PhysicalNetwork, List[InputVC]]] = []
        for net in self._net_list:
            net.begin_cycle(cycle)
            passes.append((net, []))
        for _ in range(self.bandwidth):
            for net, moves in passes:
                net.decide(cycle, moves)
            if not any(moves for _net, moves in passes):
                break
            for net, moves in passes:
                net.commit(moves, cycle)
                moves.clear()
        active = self._active_nics
        nics = self.nics
        for node in sorted(active):
            if not nics[node].inject_step(cycle):
                active.discard(node)

    def in_flight_flits(self) -> int:
        """Flits buffered in routers (conservation checks in tests)."""
        return sum(net.buffered_flits() for net in self._net_list)
