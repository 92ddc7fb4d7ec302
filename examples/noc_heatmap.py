#!/usr/bin/env python
"""Visualise where the network is hot — and what delegation moves.

Runs the baseline and Delegated Replies side by side and prints an ASCII
heatmap of per-router traffic on the reply network plus the hottest
links.  On the baseline, the memory column (M) glows: every reply
squeezes through those routers.  Under Delegated Replies a large share of
the reply traffic becomes GPU-to-GPU and the heat spreads over the GPU
region — the paper's "many-to-few becomes many-to-many" in one picture.

Run:  python examples/noc_heatmap.py
"""

from repro import baseline_config, delegated_replies_config
from repro.noc.analysis import (
    hottest_links,
    link_utilization_summary,
    render_mesh_heatmap,
)
from repro.sim.simulator import build_system

CYCLES = 2_500


def show(title: str, cfg) -> None:
    system = build_system(cfg, "HS", "bodytrack")
    system.run(CYCLES)
    net = system.fabric.reply_net
    print(f"--- {title} (reply network, {CYCLES} cycles) ---")
    print(render_mesh_heatmap(net, system.layout))
    summary = link_utilization_summary(net)
    print(f"link utilization: mean={summary['mean']:.2f} "
          f"max={summary['max']:.2f}")
    print("hottest links (src->dst @ util):")
    for load in hottest_links(net, n=5):
        print(f"  {load.src:2d}->{load.dst:2d} @ {load.utilization:.2f}")
    blocking = sum(m.nic.blocked_cycles for m in system.memory_nodes) / (
        CYCLES * len(system.memory_nodes))
    print(f"memory-node blocking rate: {blocking:.2f}\n")


def main() -> None:
    show("baseline", baseline_config())
    show("Delegated Replies", delegated_replies_config())


if __name__ == "__main__":
    main()
