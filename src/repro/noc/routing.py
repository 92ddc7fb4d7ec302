"""Routing: where every next-hop table comes from, its deadlock check, and the
adaptive policies.  Both kernels and the fault controller route on
:func:`route_tables`: fault-free, Class-based Deterministic Routing (CDR)
[3] gives requests and replies *different* dimension orders (YX and XY
in the baseline), separating CPU and GPU traffic except at the
memory-node routers (Section V).  The adaptive schemes of Section III-B —
DyXY [45], Footprint [22] and HARE [37] — pick among the minimal hops by
congestion and keep an escape VC for the table's hop; the paper finds all
three *reduce* performance versus CDR: no route avoids a memory node's
single reply link."""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config.system import NocConfig, RoutingPolicy
from repro.noc.packet import Packet
from repro.noc.topology import BaseTopology

#: ``table[rid][dst]`` -> output port (port 0, ejection, when ``dst == rid``)
Table = List[List[int]]
#: a directed link ``(router, output port)`` of one VC class
Channel = Tuple[int, int]


class PartitionedTopologyError(RuntimeError):
    """Down links have made some router unreachable (raised by :func:`route_tables`,
    so a partitioning fault plan fails fast instead of stranding traffic)."""


def route_tables(topology: BaseTopology, cfg: NocConfig, down=frozenset()) -> Tuple[Table, Table]:
    """The next-hop tables packets route on, indexed by ``pkt.net``.

    With no link ``down`` these are the topology's shared dimension-order
    tables for ``cfg``'s request and reply orders.  ``down`` holds directed
    dead links as ``(router, output_port)`` pairs; while it is non-empty
    both nets route on one up*/down* table of the healthy links.
    """
    if not down:
        return (
            topology.dor_ports(cfg.request_order),
            topology.dor_ports(cfg.reply_order),
        )
    table = _up_down_table(topology, down)
    return table, table


def _up_down_table(topology: BaseTopology, down) -> Table:
    """Up*/down* routes over the links healthy both ways (Autonet:
    Schroeder et al., 1991).  A BFS from router 0 ranks routers by (level,
    id) and a hop to a lower rank is *up*; no route goes up after going
    down, so no dependency cycle forms at any VC count.  At ``r`` the table
    takes a down hop on a shortest down-only path to ``dst`` if there is
    one, else an up hop on a shortest legal path; ties to the lowest id."""
    n, port_of = topology.n, topology.port_of
    nbrs = [sorted(nb for nb in topology.neighbors(r)
                   if (r, port_of[r][nb]) not in down and (nb, port_of[nb][r]) not in down)
            for r in range(n)]
    level = [0] + [-1] * (n - 1)
    queue = deque((0,))
    while queue:
        cur = queue.popleft()
        for nb in nbrs[cur]:
            if level[nb] < 0:
                level[nb] = level[cur] + 1
                queue.append(nb)
    if -1 in level:
        raise PartitionedTopologyError(
            f"router {level.index(-1)} cannot reach router 0: down links "
            f"partition the topology"
        )
    rank = sorted(range(n), key=lambda r: (level[r], r))
    pos = {r: i for i, r in enumerate(rank)}
    ups = [[nb for nb in nbrs[r] if pos[nb] < pos[r]] for r in range(n)]
    downs = [[nb for nb in nbrs[r] if pos[nb] > pos[r]] for r in range(n)]
    far = 2 * n  # longer than any legal route
    table: Table = [[0] * n for _ in range(n)]
    for dst in range(n):
        # hops of the shortest down-only path to dst: a BFS back from dst
        # along down hops, i.e. forwards along up hops
        dist = [far] * n
        dist[dst] = 0
        reached = [dst]
        for cur in reached:
            for u in ups[cur]:
                if dist[u] == far:
                    dist[u] = dist[cur] + 1
                    reached.append(u)
        # hops of the shortest legal path: up neighbours come first in rank
        legal = dist[:]
        for r in rank:
            for u in ups[r]:
                legal[r] = min(legal[r], legal[u] + 1)
        for r in range(n):
            if r != dst:
                if dist[r] < far:
                    nxt = next(b for b in downs[r] if dist[b] == dist[r] - 1)
                else:
                    nxt = next(u for u in ups[r] if legal[u] == legal[r] - 1)
                table[r][dst] = port_of[r][nxt]
    return table


def route_path(topology: BaseTopology, table: Table, src: int, dst: int) -> List[int]:
    """Router ids a packet visits from ``src`` to ``dst`` on ``table``,
    both ends included."""
    path = [src]
    while path[-1] != dst:
        cur = path[-1]
        path.append(topology.neighbors(cur)[table[cur][dst] - 1])
        if len(path) > topology.n:
            raise RuntimeError(f"routing loop from {src} to {dst}")
    return path


def dependency_cycle(
    topology: BaseTopology, tables: Sequence[Table], vc_ranges: Sequence[Tuple[int, int]]
) -> Optional[List[Channel]]:
    """A cycle of channel dependencies among ``tables``, in dependency
    order, or None.  ``tables[k]`` routes the packets that may use VCs
    ``vc_ranges[k]`` (``[lo, hi)``): tables whose ranges overlap share one
    VC class, so two physical networks take disjoint ranges.  A packet
    holding a channel waits for the next of its route; with no cycle in
    any class, wormhole routing cannot deadlock (Dally and Seitz)."""
    classes: Dict[int, List[Table]] = {}
    for table, (lo, hi) in zip(tables, vc_ranges):
        owner = next(i for i, (a, b) in enumerate(vc_ranges) if a < hi and lo < b)
        classes.setdefault(owner, []).append(table)
    for group in classes.values():
        succ: Dict[Channel, set] = {}
        for table in group:
            for rid, row in enumerate(table):
                nbrs = topology.neighbors(rid)
                for dst, port in enumerate(row):
                    nxt = port and table[nbrs[port - 1]][dst]
                    if nxt:
                        succ.setdefault((rid, port), set()).add(
                            (nbrs[port - 1], nxt)
                        )
        cycle = _find_cycle(succ)
        if cycle:
            return cycle
    return None


def _find_cycle(succ: Dict[Channel, set]) -> List[Channel]:
    """One cycle of the directed graph ``succ``, or ``[]``: peel off every
    node that cannot reach a cycle, then walk what is left."""
    preds: Dict[Channel, List[Channel]] = {}
    for a, bs in succ.items():
        for b in bs:
            preds.setdefault(b, []).append(a)
    live = {a: len(bs) for a, bs in succ.items()}
    sinks = [b for b in preds if b not in live]
    while sinks:
        for a in preds.get(sinks.pop(), ()):
            live[a] -= 1
            if not live[a]:
                sinks.append(a)
    left = [a for a, k in live.items() if k]
    if not left:
        return []
    walk = [min(left)]
    while walk[-1] not in walk[:-1]:
        walk.append(min(b for b in succ[walk[-1]] if live.get(b)))
    return walk[walk.index(walk[-1]):-1]


class TableSwitch:
    """Routing while a network changes tables: a packet injected before ``since``
    finishes on the ``old`` tables it started on and later ones take the network's,
    so no worm turns from one route family onto the other.  A fault controller
    installs it as the network's policy until no old packet is left (``pending``)."""

    def __init__(self, topology: BaseTopology, old, since: int) -> None:
        self.topology, self.old, self.since = topology, old, since

    def next_hop(self, network, cur: int, pkt: Packet) -> int:
        port = (self.old[pkt.net][cur][pkt.dst] if pkt.injected < self.since
                else network.dor_port(cur, pkt))
        return self.topology.neighbors(cur)[port - 1]

    def pending(self, network) -> bool:
        return any(entry[0].injected < self.since for router in network.routers
                   for ivc in router.active for entry in ivc.q)


class RoutingAlgorithm:
    """A minimal adaptive scheme (mesh only): the least congested of the
    minimal next hops, unless a policy selects otherwise."""

    def __init__(self, topology: BaseTopology) -> None:
        self.topology = topology

    def congestion(self, network, cur: int, nxt: int, pkt: Packet) -> float:
        """Estimated congestion of the ``cur -> nxt`` link; lower is better."""
        return -network.downstream_free(cur, nxt)

    def next_hop(self, network, cur: int, pkt: Packet) -> int:
        """Next-hop router id for ``pkt`` at router ``cur``; the table's
        hop (``network.dor_port``) is the escape-VC route."""
        dor = self.topology.neighbors(cur)[network.dor_port(cur, pkt) - 1]
        cands = self.topology.adaptive_candidates(cur, pkt.dst)
        if len(cands) <= 1:
            return dor
        return self.select(network, cur, cands, dor, pkt)

    def select(self, network, cur, cands: List[int], dor: int, pkt) -> int:
        return min(
            cands, key=lambda nxt: (self.congestion(network, cur, nxt, pkt), nxt)
        )


class DyXYRouting(RoutingAlgorithm):
    """DyXY [45]: pick the minimal direction with more free downstream space."""


class FootprintRouting(RoutingAlgorithm):
    """Footprint [22]: regulated adaptiveness.

    Deviate from dimension order only when the DOR direction is markedly
    more congested than the alternative (hysteresis threshold in flits).
    """

    def __init__(self, topology: BaseTopology, threshold: int = 3):
        super().__init__(topology)
        self.threshold = threshold

    def select(self, network, cur, cands, dor, pkt):
        alt = next((c for c in cands if c != dor), dor)
        gap = (self.congestion(network, cur, dor, pkt)
               - self.congestion(network, cur, alt, pkt))
        return alt if gap > self.threshold else dor


class HARERouting(RoutingAlgorithm):
    """HARE [37]: history-aware congestion estimation (EWMA per link)."""

    def __init__(self, topology: BaseTopology, alpha: float = 0.9):
        super().__init__(topology)
        self.alpha = alpha
        self._history: Dict[Tuple[int, int], float] = {}

    def congestion(self, network, cur: int, nxt: int, pkt: Packet) -> float:
        instant = -network.downstream_free(cur, nxt)
        prev = self._history.get((cur, nxt), float(instant))
        ewma = self._history[(cur, nxt)] = self.alpha * prev + (1.0 - self.alpha) * instant
        return ewma


def build_routing(topology: BaseTopology, cfg: NocConfig) -> Optional[RoutingAlgorithm]:
    """The configured adaptive policy, or None for CDR, which routes on
    :func:`route_tables` alone."""
    policy = {
        RoutingPolicy.CDR: None, RoutingPolicy.DYXY: DyXYRouting,
        RoutingPolicy.FOOTPRINT: FootprintRouting, RoutingPolicy.HARE: HARERouting,
    }[cfg.routing]
    return policy and policy(topology)
