"""Tests for the routing policies (CDR + adaptive schemes)."""

import pytest

from repro.config.system import (
    DimensionOrder,
    NocConfig,
    RoutingPolicy,
)
from repro.noc.packet import MessageType, Packet, TrafficClass
from repro.noc.routing import (
    DeterministicRouting,
    DyXYRouting,
    FootprintRouting,
    HARERouting,
    build_routing,
)
from repro.noc.topology import MeshTopology


class FakeNetwork:
    """Congestion oracle for routing tests."""

    def __init__(self, free=None):
        self.free = free or {}

    def downstream_free(self, cur, nxt):
        return self.free.get((cur, nxt), 8)


def req(src=0, dst=15):
    return Packet(src, dst, MessageType.READ_REQ, TrafficClass.GPU, 1)


def rep(src=0, dst=15):
    return Packet(src, dst, MessageType.READ_REPLY, TrafficClass.GPU, 9)


class TestCdr:
    def make(self):
        topo = MeshTopology(4, 4)
        cfg = NocConfig(
            request_order=DimensionOrder.YX,
            reply_order=DimensionOrder.XY,
        )
        return DeterministicRouting(topo, cfg), topo

    def test_requests_use_request_order(self):
        routing, topo = self.make()
        # YX from (0,0) to (3,3): go Y first -> router 4
        assert routing.next_hop(FakeNetwork(), 0, req()) == 4

    def test_replies_use_reply_order(self):
        routing, topo = self.make()
        # XY from (0,0) to (3,3): go X first -> router 1
        assert routing.next_hop(FakeNetwork(), 0, rep()) == 1

    def test_classes_take_disjoint_turns(self):
        """CDR's purpose: requests and replies bend at different corners,
        separating CPU and GPU traffic (Section V)."""
        routing, topo = self.make()
        path_req, path_rep = [0], [0]
        while path_req[-1] != 15:
            path_req.append(routing.next_hop(FakeNetwork(), path_req[-1], req()))
        while path_rep[-1] != 15:
            path_rep.append(routing.next_hop(FakeNetwork(), path_rep[-1], rep()))
        assert set(path_req[1:-1]).isdisjoint(set(path_rep[1:-1]))

    def test_not_adaptive(self):
        routing, _ = self.make()
        assert not routing.adaptive


class TestDyXY:
    def make(self, free=None):
        topo = MeshTopology(4, 4)
        return DyXYRouting(topo, NocConfig()), FakeNetwork(free)

    def test_prefers_less_congested_direction(self):
        routing, net = self.make(free={(0, 1): 1, (0, 4): 7})
        assert routing.next_hop(net, 0, req(0, 15)) == 4
        routing2, net2 = self.make(free={(0, 1): 7, (0, 4): 1})
        assert routing2.next_hop(net2, 0, req(0, 15)) == 1

    def test_single_candidate_falls_back_to_dor(self):
        routing, net = self.make()
        # destination in the same row: only the X direction is minimal
        assert routing.next_hop(net, 0, req(0, 3)) == 1

    def test_is_adaptive(self):
        routing, _ = self.make()
        assert routing.adaptive


class TestFootprint:
    def test_sticks_with_dor_below_threshold(self):
        topo = MeshTopology(4, 4)
        routing = FootprintRouting(topo, NocConfig(), threshold=3)
        # DOR (XY for requests here) is slightly worse: stay on DOR
        cfg = NocConfig(request_order=DimensionOrder.XY)
        routing = FootprintRouting(topo, cfg, threshold=3)
        net = FakeNetwork(free={(0, 1): 5, (0, 4): 7})
        assert routing.next_hop(net, 0, req(0, 15)) == 1

    def test_deviates_past_threshold(self):
        topo = MeshTopology(4, 4)
        cfg = NocConfig(request_order=DimensionOrder.XY)
        routing = FootprintRouting(topo, cfg, threshold=3)
        net = FakeNetwork(free={(0, 1): 0, (0, 4): 8})
        assert routing.next_hop(net, 0, req(0, 15)) == 4


class TestHare:
    def test_history_smooths_congestion(self):
        topo = MeshTopology(4, 4)
        routing = HARERouting(topo, NocConfig(), alpha=0.9)
        # one spike on (0,1) barely moves its EWMA (history dominates)
        calm = FakeNetwork(free={(0, 1): 8, (0, 4): 8})
        for _ in range(5):
            routing.next_hop(calm, 0, req(0, 15))
        spike = FakeNetwork(free={(0, 1): 0, (0, 4): 8})
        routing.next_hop(spike, 0, req(0, 15))
        assert routing._history[(0, 1)] < -6  # still remembered as free

    def test_sustained_congestion_changes_choice(self):
        topo = MeshTopology(4, 4)
        routing = HARERouting(topo, NocConfig(), alpha=0.5)
        congested = FakeNetwork(free={(0, 1): 0, (0, 4): 8})
        for _ in range(10):
            choice = routing.next_hop(congested, 0, req(0, 15))
        assert choice == 4


class TestFactory:
    @pytest.mark.parametrize(
        "policy,cls",
        [
            (RoutingPolicy.CDR, DeterministicRouting),
            (RoutingPolicy.DYXY, DyXYRouting),
            (RoutingPolicy.FOOTPRINT, FootprintRouting),
            (RoutingPolicy.HARE, HARERouting),
        ],
    )
    def test_build_routing(self, policy, cls):
        cfg = NocConfig(routing=policy)
        routing = build_routing(MeshTopology(4, 4), cfg)
        assert isinstance(routing, cls)
