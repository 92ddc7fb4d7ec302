"""NoC utilization analysis: where is the network hot?

Post-run inspection utilities over a :class:`PhysicalNetwork`'s per-link
flit counters.  The paper's Section II diagnosis — "all of the memory
node's GPU-side NoC links are heavily loaded (over 60% utilization)" —
becomes a one-liner::

    summary = link_utilization_summary(system.fabric.reply_net)
    hot = hottest_links(system.fabric.reply_net, n=10)
    print(render_mesh_heatmap(system.fabric.reply_net, system.layout))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.noc.network import PhysicalNetwork
from repro.noc.topology import MeshTopology


@dataclass(frozen=True)
class LinkLoad:
    """Utilization of one directed link."""

    src: int
    dst: int
    utilization: float
    flits: int


def link_loads(net: PhysicalNetwork) -> List[LinkLoad]:
    """Every directed inter-router link with its measured utilization.

    Links are enumerated from the topology's port map and read through
    ``link_flits`` / ``link_utilization``: the surface both kernels'
    networks expose.
    """
    link_flits = net.link_flits
    return [
        LinkLoad(
            src=rid,
            dst=nb,
            utilization=net.link_utilization(rid, oport),
            flits=link_flits[rid][oport],
        )
        for rid, ports in enumerate(net.topology.port_of)
        for nb, oport in ports.items()
    ]


def hottest_links(net: PhysicalNetwork, n: int = 10) -> List[LinkLoad]:
    """The ``n`` most utilized directed links, hottest first."""
    return sorted(link_loads(net), key=lambda l: -l.utilization)[:n]


def link_utilization_summary(net: PhysicalNetwork) -> dict:
    """Aggregate utilization statistics over all links."""
    loads = [l.utilization for l in link_loads(net)]
    if not loads:
        return {"mean": 0.0, "max": 0.0, "p95": 0.0, "links": 0}
    loads.sort()
    return {
        "mean": sum(loads) / len(loads),
        "max": loads[-1],
        "p95": loads[int(0.95 * (len(loads) - 1))],
        "links": len(loads),
    }


def render_value_heatmap(
    values: List[float],
    width: int,
    height: int,
    roles: Optional[List[str]] = None,
    charset: str = " .:-=+*#%@",
    legend: str = "",
) -> str:
    """ASCII heatmap of one per-router value over a ``width x height`` mesh.

    Pure function of the value vector (node ``y * width + x`` at cell
    ``(x, y)``), so trace readers can draw heatmaps without a live
    network.  ``roles`` supplies the one-character cell prefix per node
    (default ``G``); shade is proportional to ``values[rid] / peak``.
    """
    peak = max(values) if values and max(values) > 0 else 1
    rows = []
    for y in range(height):
        cells = []
        for x in range(width):
            rid = y * width + x
            v = values[rid] if rid < len(values) else 0
            shade = charset[
                min(len(charset) - 1, int(v / peak * (len(charset) - 1)))
            ]
            role = roles[rid] if roles is not None and rid < len(roles) else "G"
            cells.append(f"{role}{shade}")
        rows.append(" ".join(cells))
    if legend:
        rows.append(legend)
    return "\n".join(rows)


def render_mesh_heatmap(
    net: PhysicalNetwork,
    layout=None,
    charset: str = " .:-=+*#%@",
) -> str:
    """ASCII heatmap of per-router traffic for mesh networks.

    Each cell shows the router's role (G/C/M when a layout is given) and a
    shade proportional to the flits it routed — the memory column lighting
    up is the clogging signature.

    Non-mesh topologies have no 2-D arrangement to draw, so the output
    degrades to a per-router load table (same data, no spatial claim).
    """
    topo = net.topology
    if not isinstance(topo, MeshTopology):
        return _render_router_table(net, layout)
    flits = [r.flits_routed for r in net.routers]
    peak = max(flits) or 1
    role_of = layout.role_of if layout is not None else (lambda n: "gpu")
    roles = [
        {"gpu": "G", "cpu": "C", "mem": "M"}[role_of(rid)]
        for rid in range(len(flits))
    ]
    return render_value_heatmap(
        [float(f) for f in flits],
        topo.width,
        topo.height,
        roles=roles,
        charset=charset,
        legend=f"(shade ~ flits routed; peak router = {peak} flits)",
    )


def _render_router_table(net: PhysicalNetwork, layout=None, width: int = 30) -> str:
    """Per-router load table: the heatmap fallback for non-mesh topologies."""
    topo_name = type(net.topology).__name__
    flits = [r.flits_routed for r in net.routers]
    peak = max(flits) or 1
    role_of = layout.role_of if layout is not None else (lambda n: "gpu")
    rows = [
        f"({topo_name} has no mesh coordinates; per-router load table)",
        f"{'router':>6} {'role':>4} {'flits':>10}  load",
    ]
    for rid, n in enumerate(flits):
        bar = "#" * max(1 if n else 0, round(n / peak * width))
        rows.append(f"{rid:>6} {role_of(rid):>4} {n:>10}  {bar}")
    rows.append(f"(peak router = {peak} flits)")
    return "\n".join(rows)
