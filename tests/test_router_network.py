"""Tests for the wormhole router and network fabric."""

import pytest

from repro.config.system import NocConfig, RoutingPolicy, TelemetryConfig
from repro.faults.plan import FaultPlan, LinkDown
from repro.noc import (
    MeshTopology,
    MessageType,
    NocFabric,
    Packet,
    TrafficClass,
)
from repro.noc.router import SWITCH
from repro.sim.simulator import build_system
from repro.telemetry import TelemetryCollector

from conftest import assert_fabric_invariants, small_dr_config


def make_fabric(width=4, height=4, mem_nodes=(5,), **noc_kw):
    cfg = NocConfig(**noc_kw)
    topo = MeshTopology(width, height)
    fab = NocFabric(topo, cfg, mem_nodes=mem_nodes)
    delivered = []
    for nic in fab.nics:
        nic.handler = lambda pkt, cyc, _d=delivered: _d.append((pkt, cyc))
    return fab, delivered


def run(fab, cycles, start=0):
    for cyc in range(start, start + cycles):
        fab.step(cyc)


class TestDelivery:
    def test_single_flit_delivery(self):
        fab, delivered = make_fabric()
        pkt = Packet(0, 15, MessageType.READ_REQ, TrafficClass.GPU, 1)
        assert fab.nic(0).try_send(pkt, 0)
        run(fab, 100)
        assert [p.pid for p, _ in delivered] == [pkt.pid]
        assert pkt.delivered > 0

    def test_multi_flit_worm_delivery(self):
        fab, delivered = make_fabric()
        pkt = Packet(0, 15, MessageType.READ_REPLY, TrafficClass.GPU, 9)
        fab.nic(0).try_send(pkt, 0)
        run(fab, 200)
        assert len(delivered) == 1
        assert fab.in_flight_flits() == 0

    def test_pipeline_latency_floor(self):
        # 4-cycle routers: a 1-flit packet over h routers needs >= 4h cycles
        fab, delivered = make_fabric()
        pkt = Packet(0, 3, MessageType.READ_REQ, TrafficClass.GPU, 1, created=0)
        fab.nic(0).try_send(pkt, 0)
        run(fab, 100)
        assert pkt.latency >= 4 * 4  # 3 hops + ejection router

    def test_multi_flit_serialization_latency(self):
        fab, _ = make_fabric()
        p1 = Packet(0, 3, MessageType.READ_REQ, TrafficClass.GPU, 1, created=0)
        p9 = Packet(12, 15, MessageType.READ_REPLY, TrafficClass.GPU, 9, created=0)
        fab.nic(0).try_send(p1, 0)
        fab.nic(12).try_send(p9, 0)
        run(fab, 200)
        assert p9.latency >= p1.latency + 8  # 8 extra body flits

    def test_request_and_reply_networks_are_independent(self):
        fab, delivered = make_fabric()
        req = Packet(0, 15, MessageType.READ_REQ, TrafficClass.GPU, 1)
        rep = Packet(15, 0, MessageType.READ_REPLY, TrafficClass.GPU, 9)
        fab.nic(0).try_send(req, 0)
        fab.nic(15).try_send(rep, 0)
        run(fab, 200)
        assert len(delivered) == 2
        assert fab.request_net is not fab.reply_net

    def test_many_packets_all_arrive_exactly_once(self):
        fab, delivered = make_fabric()
        sent = []
        for cyc in range(50):
            for src in range(16):
                dst = (src + 7) % 16
                pkt = Packet(src, dst, MessageType.READ_REQ,
                             TrafficClass.GPU, 1, created=cyc)
                if fab.nic(src).try_send(pkt, cyc):
                    sent.append(pkt.pid)
            fab.step(cyc)
        run(fab, 500, start=50)
        got = [p.pid for p, _ in delivered]
        assert sorted(got) == sorted(sent)
        assert fab.in_flight_flits() == 0


class TestPriority:
    def test_cpu_beats_gpu_under_contention(self):
        fab, delivered = make_fabric()
        # saturate the path 0 -> 3 with GPU replies, then send a CPU reply
        gpu_pkts = [
            Packet(0, 3, MessageType.READ_REPLY, TrafficClass.GPU, 9)
            for _ in range(6)
        ]
        for p in gpu_pkts:
            fab.nic(0).try_send(p, 0)
        cpu = Packet(4, 3, MessageType.READ_REPLY, TrafficClass.CPU, 9)
        fab.nic(4).try_send(cpu, 0)
        run(fab, 400)
        cpu_t = cpu.delivered
        later_gpu = [p for p in gpu_pkts if p.delivered > cpu_t]
        # the CPU packet must overtake at least the GPU tail
        assert later_gpu, "CPU reply never overtook contending GPU replies"


class TestBackpressure:
    def test_buffers_never_exceed_capacity(self):
        fab, _ = make_fabric()
        for cyc in range(100):
            for src in range(16):
                if src == 3:
                    continue
                pkt = Packet(src, 3, MessageType.READ_REPLY,
                             TrafficClass.GPU, 9, created=cyc)
                fab.nic(src).try_send(pkt, cyc)
            fab.step(cyc)
            for net in (fab.request_net, fab.reply_net):
                for router in net.routers:
                    for port in range(router.nports):
                        for vc in range(router.vcs):
                            assert router.inputs[port][vc].occ <= router.vc_cap

    def test_ejection_gate_blocks_worm(self):
        fab, delivered = make_fabric()
        fab.nic(15).eject_gate = lambda pkt: False
        pkt = Packet(0, 15, MessageType.READ_REQ, TrafficClass.GPU, 1)
        fab.nic(0).try_send(pkt, 0)
        run(fab, 200)
        assert not delivered
        assert fab.in_flight_flits() == 1
        fab.nic(15).eject_gate = None
        run(fab, 100, start=200)
        assert len(delivered) == 1

    def test_injection_queue_capacity(self):
        fab, _ = make_fabric(node_injection_queue_packets=2)
        nic = fab.nic(0)
        mk = lambda: Packet(0, 15, MessageType.READ_REQ, TrafficClass.GPU, 1)
        assert nic.try_send(mk(), 0)
        assert nic.try_send(mk(), 0)
        assert not nic.try_send(mk(), 0)


class TestBandwidthFactor:
    def test_double_bandwidth_raises_throughput_substantially(self):
        # VC-count and router-pipeline effects keep the gain sublinear
        # (the paper likewise notes 100% link utilisation is unattainable)
        results = {}
        for bw in (1.0, 2.0):
            fab, delivered = make_fabric(bandwidth_factor=bw)
            for cyc in range(300):
                pkt = Packet(0, 3, MessageType.READ_REPLY,
                             TrafficClass.GPU, 9, created=cyc)
                fab.nic(0).try_send(pkt, cyc)
                fab.step(cyc)
            results[bw] = len(delivered)
        assert results[2.0] >= 1.35 * results[1.0]

    def test_single_stream_approaches_link_rate(self):
        fab, delivered = make_fabric()
        for cyc in range(400):
            pkt = Packet(0, 3, MessageType.READ_REPLY,
                         TrafficClass.GPU, 9, created=cyc)
            fab.nic(0).try_send(pkt, cyc)
            fab.step(cyc)
        flit_rate = len(delivered) * 9 / 400
        assert flit_rate > 0.8


class TestVirtualNetworks:
    def test_shared_physical_network_partitions_vcs(self):
        cfg = NocConfig(separate_physical_networks=False,
                        request_vcs=1, reply_vcs=3)
        topo = MeshTopology(4, 4)
        fab = NocFabric(topo, cfg, mem_nodes=())
        assert fab.request_net is fab.reply_net
        req = Packet(0, 5, MessageType.READ_REQ, TrafficClass.GPU, 1)
        rep = Packet(0, 5, MessageType.READ_REPLY, TrafficClass.GPU, 9)
        # each NIC feeds its kind's slice of the shared local-port VCs
        rows = fab.nic(0).rows
        assert [ivc.vc for ivc in rows[req.net].row] == [0]
        assert [ivc.vc for ivc in rows[rep.net].row] == [1, 2, 3]
        assert rows[req.net].router is rows[rep.net].router

    def test_shared_network_delivers_both_classes(self):
        cfg = NocConfig(separate_physical_networks=False,
                        request_vcs=2, reply_vcs=2)
        topo = MeshTopology(4, 4)
        fab = NocFabric(topo, cfg, mem_nodes=())
        delivered = []
        for nic in fab.nics:
            nic.handler = lambda pkt, cyc: delivered.append(pkt)
        fab.nic(0).try_send(
            Packet(0, 15, MessageType.READ_REQ, TrafficClass.GPU, 1), 0
        )
        fab.nic(15).try_send(
            Packet(15, 0, MessageType.READ_REPLY, TrafficClass.CPU, 5), 0
        )
        for cyc in range(300):
            fab.step(cyc)
        assert len(delivered) == 2


def _adaptive():
    cfg = small_dr_config()
    cfg.noc.routing = RoutingPolicy.FOOTPRINT
    return cfg, None


def _link_down():
    return small_dr_config(), FaultPlan(events=[LinkDown(at=150, a=5, b=6)])


class TestDownstreamPointer:
    """``InputVC.out`` is the head worm's allocated downstream VC: set by
    VC allocation, cleared with the tail, never left behind by a path
    that takes the worm's route back."""

    def test_cleared_by_the_tail(self):
        fab, delivered = make_fabric()
        sent = 0
        for src in range(16):
            for dst in (3, 12):
                if src != dst:
                    sent += fab.nic(src).try_send(
                        Packet(src, dst, MessageType.READ_REPLY,
                               TrafficClass.GPU, 9), 0)
        for cyc in range(1500):
            fab.step(cyc)
            assert_fabric_invariants(fab)
        assert len(delivered) == sent
        for router in fab.reply_net.routers:
            for row in router.inputs:
                for ivc in row:
                    assert ivc.out is None and ivc.route_out == -1
                    assert ivc.sent == 0 and ivc.owner is None and ivc.occ == 0

    @pytest.mark.parametrize("make", [_adaptive, _link_down])
    def test_unset_when_the_route_is_taken_back(self, make):
        # adaptive routing takes back the route of a header that found no
        # VC on its chosen port, a downed link that of the headers waiting
        # for it: the pass leaves a head it arbitrated without a route
        cfg, plan = make()
        system = build_system(cfg, "HS", "canneal", faults=plan)
        records = [
            ivc
            for net in system.fabric._net_list
            for router in net.routers
            for row in router.inputs
            for ivc in row
        ]
        taken_back = 0
        for cycle in range(500):
            # heads this cycle's pass will arbitrate: flits here, dwell over
            ready = {
                ivc: ivc.q[0][0]
                for ivc in records
                if ivc.q and ivc.q[0][1] and ivc.q[0][2] <= cycle
            }
            system.run(1)
            for ivc, head in ready.items():
                if ivc.route_out < 0 and ivc.q and ivc.q[0][0] is head:
                    taken_back += 1
                    assert ivc.out is None and ivc.sent == 0
            assert_fabric_invariants(system.fabric)
        assert taken_back > 0


class TestSwitchAllocation:
    """The switch rule of one arbitration pass (DESIGN.md §6.1): a
    router's candidates in key order, ties in ``active`` order; the first
    for an output claims it and moves unless its input port moves."""

    @staticmethod
    def _decide(net, rid, cycle):
        net.mark_router_active(rid)
        moves = []
        net.decide(cycle, moves)
        return moves

    @staticmethod
    def _arrive(router, port, vc, pkt, oport, cycle=0):
        """``pkt``'s whole worm in ``router.inputs[port][vc]``, routed to
        ``oport``."""
        ivc = router.inputs[port][vc]
        for i in range(pkt.size_flits):
            router.net.accept(ivc, pkt, i == pkt.size_flits - 1, cycle)
        ivc.route_out = oport
        return ivc

    @pytest.mark.parametrize("first_port", [0, 1])
    def test_one_packet_in_two_vcs_earlier_active_wins(self, first_port):
        # a packet that meets a router twice on a detour sits in two of
        # its VCs with one key: the VC that joined the active set first
        # takes the output, the other waits (no tuple compare of records)
        fab, _ = make_fabric(3, 1, mem_nodes=())
        net = fab.reply_net
        router = net.routers[1]
        pkt = Packet(0, 2, MessageType.READ_REPLY, TrafficClass.GPU, 1)
        ivcs = [self._arrive(router, port, 0, pkt, 2)
                for port in (first_port, 1 - first_port)]
        assert list(router.active) == ivcs
        ready = ivcs[0].q[0][2]
        assert self._decide(net, 1, ready) == [ivcs[0]]

    def test_output_idles_when_its_winner_input_moves(self):
        # router 4 of a 3x3 mesh: the CPU worm X and the older GPU worm Y
        # share input port 2 (from node 3); Y and the younger Z (input
        # port 1) both want output 4 (to node 7).  X moves, so Y — output
        # 4's winner — may not, and output 4 stays idle although Z's
        # input port is free (no second choice within a pass)
        fab, _ = make_fabric(3, 3, mem_nodes=())
        net = fab.reply_net
        router = net.routers[4]
        port_of = net.topology.port_of[4]
        p_in, q_in = port_of[3], port_of[1]
        to5, to7 = port_of[5], port_of[7]
        x = Packet(3, 5, MessageType.READ_REPLY, TrafficClass.CPU, 1)
        y = Packet(3, 7, MessageType.READ_REPLY, TrafficClass.GPU, 1)
        z = Packet(1, 7, MessageType.READ_REPLY, TrafficClass.GPU, 1)
        ivc_z = self._arrive(router, q_in, 0, z, to7)
        ivc_y = self._arrive(router, p_in, 1, y, to7)
        ivc_x = self._arrive(router, p_in, 0, x, to5)
        ready = ivc_x.q[0][2]
        assert self._decide(net, 4, ready) == [ivc_x]
        assert ivc_y.out is not None and ivc_z.out is not None  # allocated
        net.commit([ivc_x], ready)
        # next pass: Y's input port is free again and Y wins output 4
        assert self._decide(net, 4, ready + 1) == [ivc_y]

    @staticmethod
    def _stable_sort_grants(cands):
        """The reference switch rule: a stable sort of ``(key, ivc)`` on
        the key, walked with one bitmask of claimed outputs and one of
        moved inputs."""
        grants = []
        outs = ins = 0
        for _key, ivc in sorted(((ivc.q[0][3], ivc) for ivc in cands),
                                key=lambda cand: cand[0]):
            if outs & (1 << ivc.route_out):
                continue
            outs |= 1 << ivc.route_out
            if ins & (1 << ivc.port):
                continue
            ins |= 1 << ivc.port
            grants.append(ivc)
        return grants

    @pytest.mark.parametrize("telemetry", [False, True])
    def test_key_order_grants_what_a_stable_sort_grants(self, telemetry):
        # router 4 of a 3x3 mesh, five candidates arriving out of key
        # order: GPU worms Z (youngest) then Y (oldest) both for output
        # 7, packet D in two VCs (one key) for output 1, then the CPU
        # worm X, which shares Y's input port.  X moves; Y loses its
        # input port but still claims output 7, so Z waits; of D's two
        # VCs the one that joined ``active`` first moves
        fab, _ = make_fabric(3, 3, mem_nodes=())
        collector = None
        if telemetry:
            collector = TelemetryCollector(
                TelemetryConfig(enabled=True, mode="full"), fab)
            fab.attach_telemetry(collector)
        net = fab.reply_net
        router = net.routers[4]
        port_of = net.topology.port_of[4]
        y = Packet(3, 7, MessageType.READ_REPLY, TrafficClass.GPU, 1)
        d = Packet(5, 1, MessageType.READ_REPLY, TrafficClass.GPU, 1)
        z = Packet(1, 7, MessageType.READ_REPLY, TrafficClass.GPU, 1)
        x = Packet(3, 5, MessageType.READ_REPLY, TrafficClass.CPU, 1)
        arrivals = [
            (port_of[1], 0, z, port_of[7]),
            (port_of[3], 1, y, port_of[7]),
            (port_of[7], 0, d, port_of[1]),
            (port_of[5], 0, d, port_of[1]),
            (port_of[3], 0, x, port_of[5]),
        ]
        ivc_z, ivc_y, ivc_d7, ivc_d5, ivc_x = ivcs = [
            self._arrive(router, *arrival) for arrival in arrivals]
        assert list(router.active) == ivcs
        want = self._stable_sort_grants(ivcs)
        assert want == [ivc_x, ivc_d7]
        ready = ivc_x.q[0][2]
        moves = self._decide(net, 4, ready)
        assert moves == want
        if not telemetry:
            return
        losers = [ivc for ivc in ivcs if ivc not in want]
        assert losers == [ivc_z, ivc_y, ivc_d5]
        assert [ivc.stall == SWITCH for ivc in ivcs] == [
            ivc in losers for ivc in ivcs]
        # one cycle of SWITCH per loser, on its (port, class) row
        net.commit(moves, ready)
        collector.stalls.flush(ready + 1)
        charged = {(port, cls): row[SWITCH]
                   for (name, rid, port, cls), row in collector.stalls.counts.items()
                   if name == net.name and rid == 4 and row[SWITCH]}
        assert charged == {(ivc.port, int(ivc.q[0][0].cls)): 1 for ivc in losers}
