"""Tests for the four NoC topologies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.system import DimensionOrder, Topology
from repro.noc.routing import route_path
from repro.noc.topology import (
    CrossbarTopology,
    DragonflyTopology,
    FlattenedButterflyTopology,
    MeshTopology,
    build_topology,
)

ORDERS = [DimensionOrder.XY, DimensionOrder.YX]


def walk(topo, src, dst, order):
    """Follow the dimension-order table to ``dst``; returns the hop count
    (``route_path`` follows links only and refuses a routing loop)."""
    path = route_path(topo, topo.dor_ports(order), src, dst)
    assert path[-1] == dst
    return len(path) - 1


def manhattan(topo, src, dst):
    (sx, sy), (dx, dy) = topo.coords(src), topo.coords(dst)
    return abs(sx - dx) + abs(sy - dy)


class TestMesh:
    def test_link_count(self):
        topo = MeshTopology(8, 8)
        assert len(topo.links()) == 2 * 7 * 8

    def test_coords_roundtrip(self):
        topo = MeshTopology(8, 8)
        for r in range(64):
            x, y = topo.coords(r)
            assert topo.router_at(x, y) == r

    def test_xy_goes_x_first(self):
        topo = MeshTopology(8, 8)
        nxt = topo.route_next(topo.router_at(0, 0), topo.router_at(3, 3),
                              DimensionOrder.XY)
        assert topo.coords(nxt) == (1, 0)

    def test_yx_goes_y_first(self):
        topo = MeshTopology(8, 8)
        nxt = topo.route_next(topo.router_at(0, 0), topo.router_at(3, 3),
                              DimensionOrder.YX)
        assert topo.coords(nxt) == (0, 1)

    def test_corner_to_corner_is_manhattan(self):
        topo = MeshTopology(8, 8)
        for order in ORDERS:
            assert walk(topo, 0, 63, order) == 14

    def test_adaptive_candidates_are_minimal(self):
        topo = MeshTopology(4, 4)
        cands = topo.adaptive_candidates(0, 15)
        assert sorted(cands) == [1, 4]

    def test_adaptive_single_dimension(self):
        topo = MeshTopology(4, 4)
        assert topo.adaptive_candidates(0, 3) == [1]

    @settings(max_examples=60, deadline=None)
    @given(
        src=st.integers(0, 63),
        dst=st.integers(0, 63),
        order=st.sampled_from(ORDERS),
    )
    def test_routing_reaches_destination(self, src, dst, order):
        if src == dst:
            return
        topo = MeshTopology(8, 8)
        assert walk(topo, src, dst, order) == manhattan(topo, src, dst)


class TestCrossbar:
    def test_single_hop_everywhere(self):
        topo = CrossbarTopology(16)
        for dst in range(1, 16):
            assert topo.route_next(0, dst, DimensionOrder.XY) == dst
            assert walk(topo, 0, dst, DimensionOrder.XY) == 1

    def test_complete_graph_links(self):
        topo = CrossbarTopology(8)
        assert len(topo.links()) == 8 * 7 // 2


class TestFlattenedButterfly:
    def test_row_and_column_full_connectivity(self):
        topo = FlattenedButterflyTopology(4, 4)
        # router 0 connects to everything in row 0 and column 0
        assert set(topo.neighbors(0)) == {1, 2, 3, 4, 8, 12}

    def test_two_hop_diameter(self):
        topo = FlattenedButterflyTopology(8, 8)
        for order in ORDERS:
            assert walk(topo, 0, 63, order) == 2

    def test_one_hop_same_row(self):
        topo = FlattenedButterflyTopology(8, 8)
        for order in ORDERS:
            assert walk(topo, 0, 7, order) == 1


class TestDragonfly:
    def test_group_internal_full_connectivity(self):
        topo = DragonflyTopology(64, group_size=8)
        for a in range(8):
            for b in range(8):
                if a != b:
                    assert b in topo.neighbors(a)

    def test_every_group_pair_has_gateway(self):
        topo = DragonflyTopology(64, group_size=8)
        for g in range(8):
            for t in range(8):
                if g != t:
                    gw = topo._gateway[(g, t)]
                    assert topo.group_of(gw) == g

    def test_global_links_are_symmetric(self):
        topo = DragonflyTopology(64, group_size=8)
        for (g, t), gw in topo._gateway.items():
            remote = topo._gateway[(t, g)]
            assert remote in topo.neighbors(gw)

    @settings(max_examples=60, deadline=None)
    @given(src=st.integers(0, 63), dst=st.integers(0, 63))
    def test_routing_reaches_destination(self, src, dst):
        if src == dst:
            return
        topo = DragonflyTopology(64, group_size=8)
        hops = walk(topo, src, dst, DimensionOrder.XY)
        assert hops <= 3  # local + global + local

    def test_invalid_group_size_rejected(self):
        with pytest.raises(ValueError):
            DragonflyTopology(63, group_size=8)


class TestBuildTopology:
    @pytest.mark.parametrize("kind", list(Topology))
    def test_factory_builds_all_kinds(self, kind):
        topo = build_topology(kind, 8, 8)
        assert topo.n == 64
        assert topo.kind is kind

    @pytest.mark.parametrize("kind", list(Topology))
    def test_every_node_has_local_attachment_point(self, kind):
        # the clogging argument: one injection/ejection point per node
        topo = build_topology(kind, 8, 8)
        for r in range(topo.n):
            assert len(topo.neighbors(r)) >= 1


class TestOneFabricDescription:
    """``port_of`` / ``dor_ports`` are the wiring and the dimension-order
    tables both kernels are built from."""

    @pytest.mark.parametrize("side", [4, 8])
    @pytest.mark.parametrize("order", list(DimensionOrder))
    @pytest.mark.parametrize("kind", list(Topology))
    def test_dor_ports_is_route_next_through_port_of(self, kind, order, side):
        topo = build_topology(kind, side, side)
        table = topo.dor_ports(order)
        for rid in range(topo.n):
            ports = topo.port_of[rid]
            assert sorted(ports.values()) == list(range(1, 1 + len(ports)))
            for dst in range(topo.n):
                expect = (
                    0 if dst == rid
                    else ports[topo.route_next(rid, dst, order)]
                )
                assert table[rid][dst] == expect

    def test_every_fabric_on_a_topology_reads_the_same_tables(self):
        from repro.config.system import NocConfig
        from repro.noc import NocFabric
        from repro.noc.packet import NetKind

        cfg = NocConfig()
        topo = build_topology(cfg.topology, 4, 4)
        assert build_topology(cfg.topology, 4, 4) is topo
        nets = [
            net for _ in range(2)
            for net in NocFabric(topo, cfg)._net_list
        ]
        assert len(nets) == 4
        for net in nets:
            for kind, order in (
                (NetKind.REQUEST, cfg.request_order),
                (NetKind.REPLY, cfg.reply_order),
            ):
                assert net.tables[kind] is topo.dor_ports(order)
