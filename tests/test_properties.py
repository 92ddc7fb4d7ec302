"""Property-based tests on the NoC: conservation, capacity, termination."""

from hypothesis import given, settings, strategies as st

from repro.config.system import NocConfig, RoutingPolicy
from repro.noc.routing import route_path
from repro.noc import (
    MeshTopology,
    MessageType,
    NocFabric,
    Packet,
    TrafficClass,
)

MSG_CHOICES = [
    (MessageType.READ_REQ, 1),
    (MessageType.READ_REPLY, 9),
    (MessageType.WRITE_REQ, 9),
    (MessageType.WRITE_ACK, 1),
    (MessageType.C2C_REPLY, 9),
]


@st.composite
def traffic(draw):
    """A batch of random packets on a 4x4 mesh."""
    n = draw(st.integers(1, 40))
    pkts = []
    for _ in range(n):
        src = draw(st.integers(0, 15))
        dst = draw(st.integers(0, 15))
        if src == dst:
            dst = (dst + 1) % 16
        mtype, flits = draw(st.sampled_from(MSG_CHOICES))
        cls = draw(st.sampled_from([TrafficClass.CPU, TrafficClass.GPU]))
        pkts.append((src, dst, mtype, flits, cls))
    return pkts


def build(policy=RoutingPolicy.CDR):
    cfg = NocConfig(routing=policy)
    fab = NocFabric(MeshTopology(4, 4), cfg, mem_nodes=(5,))
    delivered = []
    for nic in fab.nics:
        nic.handler = lambda pkt, cyc: delivered.append(pkt)
    return fab, delivered


class TestFlitConservation:
    @settings(max_examples=25, deadline=None)
    @given(traffic())
    def test_everything_injected_is_delivered_once(self, pkts):
        fab, delivered = build()
        sent = []
        for i, (src, dst, mtype, flits, cls) in enumerate(pkts):
            pkt = Packet(src, dst, mtype, cls, flits, created=0)
            if fab.nic(src).try_send(pkt, 0):
                sent.append(pkt)
        for cyc in range(2500):
            fab.step(cyc)
            if fab.in_flight_flits() == 0 and len(delivered) == len(sent):
                break
        assert sorted(p.pid for p in delivered) == sorted(p.pid for p in sent)
        assert fab.in_flight_flits() == 0
        flits_sent = sum(p.size_flits for p in sent)
        assert fab.reply_net.flits_delivered + fab.request_net.flits_delivered == flits_sent

    @settings(max_examples=25, deadline=None)
    @given(traffic())
    def test_buffers_respect_capacity_under_random_traffic(self, pkts):
        fab, _ = build()
        for src, dst, mtype, flits, cls in pkts:
            fab.nic(src).try_send(Packet(src, dst, mtype, cls, flits), 0)
        for cyc in range(200):
            fab.step(cyc)
            for net in {fab.request_net, fab.reply_net}:
                for router in net.routers:
                    for port in range(router.nports):
                        for vc in range(router.vcs):
                            occ = router.inputs[port][vc].occ
                            assert 0 <= occ <= router.vc_cap

    @settings(max_examples=15, deadline=None)
    @given(traffic())
    def test_adaptive_routing_also_terminates(self, pkts):
        """DyXY with the escape VC must deliver everything (deadlock-free)."""
        fab, delivered = build(policy=RoutingPolicy.DYXY)
        sent = 0
        for src, dst, mtype, flits, cls in pkts:
            if fab.nic(src).try_send(Packet(src, dst, mtype, cls, flits), 0):
                sent += 1
        for cyc in range(4000):
            fab.step(cyc)
            if len(delivered) == sent:
                break
        assert len(delivered) == sent
        assert fab.in_flight_flits() == 0


class TestLatencyProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        src=st.integers(0, 15),
        dst=st.integers(0, 15),
        flits=st.integers(1, 9),
    )
    def test_latency_at_least_pipeline_floor(self, src, dst, flits):
        if src == dst:
            return
        fab, delivered = build()
        topo = fab.topology
        pkt = Packet(src, dst, MessageType.READ_REPLY, TrafficClass.GPU,
                     flits, created=0)
        fab.nic(src).try_send(pkt, 0)
        for cyc in range(500):
            fab.step(cyc)
            if delivered:
                break
        # routers on the reply's route, the ejection router included
        hops = len(route_path(topo, topo.dor_ports(fab.cfg.reply_order),
                              src, dst))
        assert pkt.latency >= 4 * hops + (flits - 1)
