"""NoC topologies: 2D mesh, crossbar, flattened butterfly and Dragonfly.

Every topology places one router per node and gives each node exactly one
injection and one ejection port per (physical) network.  This models the
paper's observation that *"each memory node has a single reply network link
in contemporary topologies"* — the property that makes network clogging
topology-independent (Section III-B, Fig. 5).

A topology provides the adjacency (``neighbors``), a deterministic minimal
route (``route_next``), and for the mesh the set of minimal next hops used
by the adaptive routing schemes (``adaptive_candidates``).  It is also the
one description of the fabric's wiring every kernel is built from: which
output port of a router faces which neighbour (``port_of``) and the
dimension-order output port per (router, destination) (``dor_ports``),
which :func:`repro.noc.routing.route_tables` hands to every table reader.
A topology never changes once constructed, so :func:`build_topology`
hands every caller of one shape the same object and its tables are built
once per process.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.config.system import DimensionOrder, Topology as TopologyKind


class BaseTopology:
    """Common interface for all topologies."""

    kind: TopologyKind

    def __init__(self, n: int) -> None:
        self.n = n
        self._neighbors: List[List[int]] = [[] for _ in range(n)]
        self._dor_ports: Dict[DimensionOrder, List[List[int]]] = {}

    def _connect(self, a: int, b: int) -> None:
        """Add a bidirectional link between routers ``a`` and ``b``."""
        if b not in self._neighbors[a]:
            self._neighbors[a].append(b)
            self._neighbors[b].append(a)

    def neighbors(self, router: int) -> Sequence[int]:
        return self._neighbors[router]

    @cached_property
    def port_of(self) -> List[Dict[int, int]]:
        """Per router, neighbour id -> output port: port 0 is the local
        (injection / ejection) port, neighbour ``i`` sits on port
        ``1 + i``."""
        return [
            {nb: 1 + i for i, nb in enumerate(nbrs)}
            for nbrs in self._neighbors
        ]

    def dor_ports(self, order: DimensionOrder) -> List[List[int]]:
        """``table[rid][dst]`` -> output port of the dimension-order hop
        (port 0, ejection, when ``dst == rid``).

        Built once per order and shared, read-only, by every network of
        every fabric on this topology.
        """
        table = self._dor_ports.get(order)
        if table is None:
            route_next = self.route_next
            table = self._dor_ports[order] = [
                [
                    0 if dst == rid else ports[route_next(rid, dst, order)]
                    for dst in range(self.n)
                ]
                for rid, ports in enumerate(self.port_of)
            ]
        return table

    def links(self) -> List[Tuple[int, int]]:
        """All undirected inter-router links (for the area/energy models)."""
        seen = []
        for a in range(self.n):
            for b in self._neighbors[a]:
                if a < b:
                    seen.append((a, b))
        return seen

    def route_next(self, cur: int, dst: int, order: DimensionOrder) -> int:
        """Deterministic minimal next hop from ``cur`` towards ``dst``."""
        raise NotImplementedError

    def adaptive_candidates(self, cur: int, dst: int) -> List[int]:
        """Minimal next hops for adaptive routing; default: deterministic."""
        return [self.route_next(cur, dst, DimensionOrder.XY)]



class MeshTopology(BaseTopology):
    """2D mesh; router ids are ``y * width + x``."""

    kind = TopologyKind.MESH

    def __init__(self, width: int, height: int) -> None:
        super().__init__(width * height)
        self.width = width
        self.height = height
        for y in range(height):
            for x in range(width):
                r = y * width + x
                if x + 1 < width:
                    self._connect(r, r + 1)
                if y + 1 < height:
                    self._connect(r, r + width)

    def coords(self, router: int) -> Tuple[int, int]:
        return router % self.width, router // self.width

    def router_at(self, x: int, y: int) -> int:
        return y * self.width + x

    def route_next(self, cur: int, dst: int, order: DimensionOrder) -> int:
        cx, cy = self.coords(cur)
        dx, dy = self.coords(dst)
        if order is DimensionOrder.XY:
            if cx != dx:
                return self.router_at(cx + (1 if dx > cx else -1), cy)
            return self.router_at(cx, cy + (1 if dy > cy else -1))
        if cy != dy:
            return self.router_at(cx, cy + (1 if dy > cy else -1))
        return self.router_at(cx + (1 if dx > cx else -1), cy)

    def adaptive_candidates(self, cur: int, dst: int) -> List[int]:
        cx, cy = self.coords(cur)
        dx, dy = self.coords(dst)
        out = []
        if cx != dx:
            out.append(self.router_at(cx + (1 if dx > cx else -1), cy))
        if cy != dy:
            out.append(self.router_at(cx, cy + (1 if dy > cy else -1)))
        return out



class CrossbarTopology(BaseTopology):
    """Fully connected crossbar with per-node core-to-core links."""

    kind = TopologyKind.CROSSBAR

    def __init__(self, n: int) -> None:
        super().__init__(n)
        for a in range(n):
            for b in range(a + 1, n):
                self._connect(a, b)

    def route_next(self, cur: int, dst: int, order: DimensionOrder) -> int:
        return dst



class FlattenedButterflyTopology(BaseTopology):
    """Flattened butterfly [41]: full connectivity within each row/column."""

    kind = TopologyKind.FLATTENED_BUTTERFLY

    def __init__(self, width: int, height: int) -> None:
        super().__init__(width * height)
        self.width = width
        self.height = height
        for y in range(height):
            for x in range(width):
                r = y * width + x
                for x2 in range(x + 1, width):
                    self._connect(r, y * width + x2)
                for y2 in range(y + 1, height):
                    self._connect(r, y2 * width + x)

    def coords(self, router: int) -> Tuple[int, int]:
        return router % self.width, router // self.width

    def route_next(self, cur: int, dst: int, order: DimensionOrder) -> int:
        cx, cy = self.coords(cur)
        dx, dy = self.coords(dst)
        if order is DimensionOrder.XY:
            if cx != dx:
                return cy * self.width + dx
            return dy * self.width + cx
        if cy != dy:
            return dy * self.width + cx
        return cy * self.width + dx



class DragonflyTopology(BaseTopology):
    """Dragonfly [42]: fully connected groups joined by global links.

    With ``n`` routers and ``group_size`` routers per group, router ``i`` of
    group ``g`` owns the global link to group ``(g + 1 + i) mod groups``
    (no link when that wraps back to ``g``), giving each group one link to
    every other group.
    """

    kind = TopologyKind.DRAGONFLY

    def __init__(self, n: int, group_size: int = 8) -> None:
        if n % group_size:
            raise ValueError("n must be a multiple of group_size")
        super().__init__(n)
        self.group_size = group_size
        self.groups = n // group_size
        #: (group, target_group) -> router in ``group`` owning that link
        self._gateway: Dict[Tuple[int, int], int] = {}
        for g in range(self.groups):
            base = g * group_size
            for a in range(group_size):
                for b in range(a + 1, group_size):
                    self._connect(base + a, base + b)
            for i in range(group_size):
                t = (g + 1 + i) % self.groups
                if t == g:
                    continue
                j = (g - t - 1) % self.group_size
                if g < t:  # connect each global link once
                    self._connect(base + i, t * group_size + j)
                self._gateway[(g, t)] = base + i

    def group_of(self, router: int) -> int:
        return router // self.group_size

    def route_next(self, cur: int, dst: int, order: DimensionOrder) -> int:
        cg, dg = self.group_of(cur), self.group_of(dst)
        if cg == dg:
            return dst
        gateway = self._gateway[(cg, dg)]
        if cur != gateway:
            return gateway
        return self._gateway[(dg, cg)]



@lru_cache(maxsize=16)
def build_topology(kind: TopologyKind, width: int, height: int) -> BaseTopology:
    """The requested topology for a ``width x height`` node grid (shared:
    every caller asking for one shape gets the same immutable object)."""
    n = width * height
    if kind is TopologyKind.MESH:
        return MeshTopology(width, height)
    if kind is TopologyKind.CROSSBAR:
        return CrossbarTopology(n)
    if kind is TopologyKind.FLATTENED_BUTTERFLY:
        return FlattenedButterflyTopology(width, height)
    if kind is TopologyKind.DRAGONFLY:
        return DragonflyTopology(n, group_size=width)
    raise ValueError(f"unknown topology {kind}")
