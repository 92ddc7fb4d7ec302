"""Tests for routing: the next-hop tables, their deadlock check, CDR and the
adaptive schemes."""

import functools

import pytest

from repro.config.system import (
    DimensionOrder,
    Layout,
    NocConfig,
    RoutingPolicy,
    Topology,
    baseline_config,
    table1_mix,
)
from repro.noc.packet import MessageType, NetKind, Packet, TrafficClass
from repro.noc.routing import (
    DyXYRouting,
    FootprintRouting,
    HARERouting,
    PartitionedTopologyError,
    TableSwitch,
    build_routing,
    dependency_cycle,
    route_path,
    route_tables,
)
from repro.noc.topology import MeshTopology, build_topology
from repro.sim.layout import apply_default_orders, build_layout


class FakeNetwork:
    """Congestion oracle for routing tests; its dimension-order port is
    the 4x4 mesh's table for ``cfg``, as a real network's is."""

    def __init__(self, free=None, cfg=None):
        self.free = free or {}
        self.tables = route_tables(MeshTopology(4, 4), cfg or NocConfig())

    def downstream_free(self, cur, nxt):
        return self.free.get((cur, nxt), 8)

    def dor_port(self, rid, pkt):
        return self.tables[pkt.net][rid][pkt.dst]


def req(src=0, dst=15):
    return Packet(src, dst, MessageType.READ_REQ, TrafficClass.GPU, 1)


def rep(src=0, dst=15):
    return Packet(src, dst, MessageType.READ_REPLY, TrafficClass.GPU, 9)


class TestCdr:
    """CDR routes on :func:`route_tables` alone: one table per class."""

    def make(self):
        topo = MeshTopology(4, 4)
        cfg = NocConfig(
            request_order=DimensionOrder.YX,
            reply_order=DimensionOrder.XY,
        )
        return route_tables(topo, cfg), topo

    def path(self, pkt):
        tables, topo = self.make()
        return route_path(topo, tables[pkt.net], pkt.src, pkt.dst)

    def test_requests_use_request_order(self):
        # YX from (0,0) to (3,3): go Y first -> router 4
        assert self.path(req())[1] == 4

    def test_replies_use_reply_order(self):
        # XY from (0,0) to (3,3): go X first -> router 1
        assert self.path(rep())[1] == 1

    def test_classes_take_disjoint_turns(self):
        """CDR's purpose: requests and replies bend at different corners,
        separating CPU and GPU traffic (Section V)."""
        path_req, path_rep = self.path(req()), self.path(rep())
        assert path_req[-1] == path_rep[-1] == 15
        assert set(path_req[1:-1]).isdisjoint(set(path_rep[1:-1]))

    def test_not_adaptive(self):
        topo = MeshTopology(4, 4)
        assert build_routing(topo, NocConfig(routing=RoutingPolicy.CDR)) is None


class TestDyXY:
    def make(self, free=None):
        topo = MeshTopology(4, 4)
        return DyXYRouting(topo), FakeNetwork(free)

    def test_prefers_less_congested_direction(self):
        routing, net = self.make(free={(0, 1): 1, (0, 4): 7})
        assert routing.next_hop(net, 0, req(0, 15)) == 4
        routing2, net2 = self.make(free={(0, 1): 7, (0, 4): 1})
        assert routing2.next_hop(net2, 0, req(0, 15)) == 1

    def test_single_candidate_falls_back_to_dor(self):
        routing, net = self.make()
        # destination in the same row: only the X direction is minimal
        assert routing.next_hop(net, 0, req(0, 3)) == 1

    def test_dor_hop_is_the_networks_table(self):
        """The escape-VC hop comes from ``network.dor_port``: a network
        whose table says otherwise is obeyed."""
        routing, net = self.make()
        net.tables = [[row[:] for row in t] for t in net.tables]
        net.tables[NetKind.REQUEST][0][3] = 2  # router 0's port 2 faces 4
        assert routing.next_hop(net, 0, req(0, 3)) == 4


class TestFootprint:
    def test_sticks_with_dor_below_threshold(self):
        routing = FootprintRouting(MeshTopology(4, 4), threshold=3)
        # DOR (XY for requests here) is slightly worse: stay on DOR
        cfg = NocConfig(request_order=DimensionOrder.XY)
        net = FakeNetwork(free={(0, 1): 5, (0, 4): 7}, cfg=cfg)
        assert routing.next_hop(net, 0, req(0, 15)) == 1
        # under the default YX request order the DOR hop is router 4
        net = FakeNetwork(free={(0, 1): 7, (0, 4): 5})
        assert routing.next_hop(net, 0, req(0, 15)) == 4

    def test_deviates_past_threshold(self):
        topo = MeshTopology(4, 4)
        cfg = NocConfig(request_order=DimensionOrder.XY)
        routing = FootprintRouting(topo, threshold=3)
        net = FakeNetwork(free={(0, 1): 0, (0, 4): 8}, cfg=cfg)
        assert routing.next_hop(net, 0, req(0, 15)) == 4


class TestHare:
    def test_history_smooths_congestion(self):
        topo = MeshTopology(4, 4)
        routing = HARERouting(topo, alpha=0.9)
        # one spike on (0,1) barely moves its EWMA (history dominates)
        calm = FakeNetwork(free={(0, 1): 8, (0, 4): 8})
        for _ in range(5):
            routing.next_hop(calm, 0, req(0, 15))
        spike = FakeNetwork(free={(0, 1): 0, (0, 4): 8})
        routing.next_hop(spike, 0, req(0, 15))
        assert routing._history[(0, 1)] < -6  # still remembered as free

    def test_sustained_congestion_changes_choice(self):
        topo = MeshTopology(4, 4)
        routing = HARERouting(topo, alpha=0.5)
        congested = FakeNetwork(free={(0, 1): 0, (0, 4): 8})
        for _ in range(10):
            choice = routing.next_hop(congested, 0, req(0, 15))
        assert choice == 4


class TestFactory:
    @pytest.mark.parametrize(
        "policy,cls",
        [
            (RoutingPolicy.CDR, type(None)),
            (RoutingPolicy.DYXY, DyXYRouting),
            (RoutingPolicy.FOOTPRINT, FootprintRouting),
            (RoutingPolicy.HARE, HARERouting),
        ],
    )
    def test_build_routing(self, policy, cls):
        cfg = NocConfig(routing=policy)
        routing = build_routing(MeshTopology(4, 4), cfg)
        assert isinstance(routing, cls)


def _link_down(topo, a, b):
    """The directed ``(router, port)`` entry of link ``a -> b``."""
    return frozenset({(a, topo.port_of[a][b])})


@functools.lru_cache(maxsize=None)
def _single_link_down_tables(side):
    """The routing tables of every ``side x side`` mesh with one link down."""
    topo = MeshTopology(side, side)
    return topo, [
        route_tables(topo, NocConfig(), _link_down(topo, a, b))
        for a, b in topo.links()
    ]


def _hop_counts(topo, table, dst):
    """``hops[src]``: the length of every route on ``table`` to ``dst``."""
    hops = {dst: 0}

    def count(r):
        if r not in hops:
            hops[r] = 1 + count(topo.neighbors(r)[table[r][dst] - 1])
        return hops[r]

    return [count(r) for r in range(topo.n)]


class TestRouteTables:
    """:func:`route_tables`: the dimension-order tables fault-free, one
    up*/down* table while links are down."""

    def test_fault_free_tables_are_the_topologys(self):
        topo = MeshTopology(4, 4)
        cfg = NocConfig()
        req_t, rep_t = route_tables(topo, cfg)
        assert req_t is topo.dor_ports(cfg.request_order)
        assert rep_t is topo.dor_ports(cfg.reply_order)

    @pytest.mark.parametrize("link", [(5, 6), (6, 5), (0, 1), (9, 13)])
    def test_detours_avoid_the_link_both_ways(self, link):
        topo = MeshTopology(4, 4)
        a, b = link
        req_t, rep_t = route_tables(topo, NocConfig(), _link_down(topo, a, b))
        assert req_t is rep_t
        for src in range(topo.n):
            for dst in range(topo.n):
                path = route_path(topo, req_t, src, dst)
                assert path[-1] == dst
                hops = set(zip(path, path[1:]))
                assert (a, b) not in hops and (b, a) not in hops

    def test_routes_go_up_then_down(self):
        """Rank is (BFS level from router 0, id); no route takes a hop
        towards a lower rank after one towards a higher rank."""
        topo = MeshTopology(8, 8)
        table = route_tables(topo, NocConfig(), _link_down(topo, 27, 28))[0]
        # the BFS levels without the 27-28 link (only 28's moves: 27 is
        # level 6, 28 level 5 through 20)
        rank = {r: (sum(topo.coords(r)), r) for r in range(topo.n)}
        for src in range(topo.n):
            for dst in range(topo.n):
                path = route_path(topo, table, src, dst)
                ups = [rank[b] < rank[a] for a, b in zip(path, path[1:])]
                assert ups == sorted(ups, reverse=True)

    def test_mean_detour_stays_near_minimal(self):
        """Over every single-link-down 8x8 mesh, routes are 0.8% longer
        than dimension order's on average (5.376 hops against 5.333)."""
        topo, all_tables = _single_link_down_tables(8)
        detour = sum(
            sum(_hop_counts(topo, table, dst))
            for table, _ in all_tables for dst in range(topo.n)
        )
        minimal = len(all_tables) * sum(
            abs(sx - dx) + abs(sy - dy)
            for sx, sy in map(topo.coords, range(topo.n))
            for dx, dy in map(topo.coords, range(topo.n))
        )
        assert detour / minimal == pytest.approx(5.376 / 5.333, abs=1e-3)

    def test_table_switch_finishes_old_packets_on_old_tables(self):
        """Packets injected before the switch keep the detour; later ones
        take the network's (here dimension-order) tables."""
        topo = MeshTopology(4, 4)
        detour = route_tables(topo, NocConfig(), _link_down(topo, 5, 6))
        switch = TableSwitch(topo, detour, since=100)
        old, new = req(5, 6), req(5, 6)
        old.injected, new.injected = 99, 100
        assert switch.next_hop(FakeNetwork(), 5, new) == 6
        assert switch.next_hop(FakeNetwork(), 5, old) != 6

    def test_partition_raises(self):
        topo = MeshTopology(4, 4)
        down = _link_down(topo, 0, 1) | _link_down(topo, 4, 0)
        with pytest.raises(PartitionedTopologyError):
            route_tables(topo, NocConfig(), down)

    @pytest.mark.parametrize("kind", list(Topology))
    def test_every_single_link_down_detour_arrives_without_cycles(self, kind):
        """Up*/down* needs only a connected graph: on every fabric, each
        single dead link leaves routes that arrive, never cross it, and
        form no dependency cycle even on one VC class."""
        topo = build_topology(kind, 4, 4)
        cfg = NocConfig(topology=kind)
        for a, b in topo.links():
            tables = route_tables(topo, cfg, _link_down(topo, a, b))
            for src in range(topo.n):
                for dst in range(topo.n):
                    path = route_path(topo, tables[0], src, dst)
                    assert path[-1] == dst
                    hops = set(zip(path, path[1:]))
                    assert (a, b) not in hops and (b, a) not in hops
            assert dependency_cycle(topo, tables, ((0, 1), (0, 1))) is None


def _distances(topo, src):
    """Hop count of a shortest path from ``src`` to every router (BFS)."""
    dist = {src: 0}
    frontier = [src]
    for cur in frontier:
        for nb in topo.neighbors(cur):
            if nb not in dist:
                dist[nb] = dist[cur] + 1
                frontier.append(nb)
    return [dist[r] for r in range(topo.n)]


def _baseline_routes(kind, side, layout=Layout.BASELINE):
    """Routers and directed links the CPU and the GPU cores' memory
    traffic (requests on the request table, replies on the reply table)
    cross on a ``side x side`` Table I system, plus its placement."""
    cfg = baseline_config(**table1_mix(side, side), layout=layout)
    cfg.noc.topology = kind
    apply_default_orders(cfg)
    topo = build_topology(kind, side, side)
    req_t, rep_t = route_tables(topo, cfg.noc)
    placement = build_layout(cfg)

    def crossed(cores):
        routers, links = set(), set()
        for core in cores:
            for mem in placement.mem_nodes:
                for path in (route_path(topo, req_t, core, mem),
                             route_path(topo, rep_t, mem, core)):
                    routers.update(path)
                    links.update(zip(path, path[1:]))
        return routers, links

    return crossed(placement.cpu_nodes), crossed(placement.gpu_nodes), placement


class TestRouteShapes:
    """The routes themselves, pair by pair, on every fabric the config
    can name: what the CDR argument of Section V rests on."""

    @pytest.mark.parametrize("side", [4, 8])
    @pytest.mark.parametrize("order", list(DimensionOrder))
    @pytest.mark.parametrize("kind", list(Topology))
    def test_dimension_order_routes_are_shortest_paths(self, kind, order, side):
        topo = build_topology(kind, side, side)
        table = topo.dor_ports(order)
        for src in range(topo.n):
            dist = _distances(topo, src)
            for dst in range(topo.n):
                assert len(route_path(topo, table, src, dst)) - 1 == dist[dst]

    @pytest.mark.parametrize("side", [4, 8])
    @pytest.mark.parametrize("kind", list(Topology))
    def test_a_yx_route_reversed_is_the_xy_route_back(self, kind, side):
        """Under CDR YX-XY a reply retraces its request's routers."""
        topo = build_topology(kind, side, side)
        xy = topo.dor_ports(DimensionOrder.XY)
        yx = topo.dor_ports(DimensionOrder.YX)
        for src in range(topo.n):
            for dst in range(topo.n):
                assert (route_path(topo, yx, src, dst)[::-1]
                        == route_path(topo, xy, dst, src))

    @pytest.mark.parametrize("side", [4, 8])
    @pytest.mark.parametrize(
        "kind",
        [Topology.MESH, Topology.CROSSBAR, Topology.FLATTENED_BUTTERFLY],
    )
    def test_baseline_cdr_meets_cpu_and_gpu_traffic_only_at_memory(
        self, kind, side
    ):
        """Fig. 1a with CDR YX-XY: CPU and GPU memory traffic share no
        link, and no router but the memory nodes'."""
        (cpu_routers, cpu_links), (gpu_routers, gpu_links), placement = (
            _baseline_routes(kind, side))
        assert not cpu_links & gpu_links
        assert (cpu_routers & gpu_routers) <= set(placement.mem_nodes)

    @pytest.mark.parametrize("side", [4, 8])
    @pytest.mark.parametrize("kind, layout", [
        (Topology.MESH, Layout.EDGE),
        (Topology.MESH, Layout.CLUSTERED),
        (Topology.MESH, Layout.DISTRIBUTED),
        (Topology.DRAGONFLY, Layout.BASELINE),
    ])
    def test_other_layouts_and_dragonfly_give_the_isolation_up(
        self, kind, layout, side
    ):
        """The alternatives of Fig. 1 trade the baseline's isolation
        away, and a dragonfly's minimal routes cross groups through
        routers of both kinds."""
        (cpu_routers, _), (gpu_routers, _), placement = _baseline_routes(
            kind, side, layout)
        assert (cpu_routers & gpu_routers) - set(placement.mem_nodes)


def _fabric_vc_ranges(noc):
    """Each class's VCs in one index space over the fabric's physical
    networks: a second network's VCs follow the first's, so two networks
    share no channel."""
    if noc.separate_physical_networks:
        v = noc.vcs_per_port
        return (0, v), (v, 2 * v)
    return noc.vc_ranges


def _assert_is_cycle(topo, tables, cycle):
    """``cycle``'s channels depend on each other in a ring."""
    assert cycle
    for (rid, port), (nrid, nport) in zip(cycle, cycle[1:] + cycle[:1]):
        assert topo.neighbors(rid)[port - 1] == nrid
        assert any(
            t[rid][dst] == port and t[nrid][dst] == nport
            for t in tables for dst in range(topo.n)
        )


class TestDependencyCycle:
    """Deadlock freedom by construction, checked on the tables the kernels
    route on: an acyclic channel-dependency graph per VC class is
    sufficient for wormhole routing (Dally and Seitz), and an adaptive
    policy needs it for its escape VC's DOR table (Duato).

    Dragonfly's minimal routes do have a cycle.  Splitting its VC range by
    phase, before and after the global hop, is ROADMAP item 11(b); until
    then ``SystemConfig.validate`` refuses a dragonfly with fewer than two
    VCs per class, which keeps the probe's hangs out of every run.
    """

    ORDER_PAIRS = [(a, b) for a in DimensionOrder for b in DimensionOrder]

    @pytest.mark.parametrize("side", [4, 8])
    @pytest.mark.parametrize("separate", [True, False])
    @pytest.mark.parametrize(
        "kind",
        [Topology.MESH, Topology.CROSSBAR, Topology.FLATTENED_BUTTERFLY],
    )
    def test_dor_tables_are_acyclic(self, kind, separate, side):
        topo = build_topology(kind, side, side)
        for req_order, rep_order in self.ORDER_PAIRS:
            for routing in (RoutingPolicy.CDR, RoutingPolicy.DYXY):
                if routing is not RoutingPolicy.CDR and kind is not Topology.MESH:
                    continue
                cfg = NocConfig(
                    topology=kind, routing=routing,
                    request_order=req_order, reply_order=rep_order,
                    separate_physical_networks=separate,
                )
                ranges = _fabric_vc_ranges(cfg)
                if routing is not RoutingPolicy.CDR:
                    # the escape sub-network: the lowest VC of each range
                    ranges = tuple((lo, lo + 1) for lo, _hi in ranges)
                tables = route_tables(topo, cfg)
                assert dependency_cycle(topo, tables, ranges) is None

    @pytest.mark.parametrize("side", [4, 8])
    def test_every_single_link_down_table_is_acyclic(self, side):
        topo, all_tables = _single_link_down_tables(side)
        for tables in all_tables:
            # one VC class for both nets: the strictest reading
            assert dependency_cycle(topo, tables, ((0, 1), (0, 1))) is None

    def test_xy_and_yx_on_one_class_cycle(self):
        topo = MeshTopology(4, 4)
        cfg = NocConfig(
            request_order=DimensionOrder.YX, reply_order=DimensionOrder.XY
        )
        tables = route_tables(topo, cfg)
        cycle = dependency_cycle(topo, tables, ((0, 2), (0, 2)))
        _assert_is_cycle(topo, tables, cycle)
        # the same tables on two classes are safe
        assert dependency_cycle(topo, tables, ((0, 2), (2, 4))) is None

    def test_dragonfly_minimal_routes_cycle(self):
        topo = build_topology(Topology.DRAGONFLY, 8, 8)
        tables = route_tables(topo, NocConfig(topology=Topology.DRAGONFLY))
        cycle = dependency_cycle(topo, tables, ((0, 2), (2, 4)))
        _assert_is_cycle(topo, tables, cycle)
