"""Figure 16: Delegated Replies across NoC topologies (Section VII).

Each topology is its own baseline; DR's gain barely changes because the
clogged resource — the memory node's single reply injection link — exists
in every topology.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import amean
from repro.config import Topology, baseline_config, delegated_replies_config
from repro.experiments.common import (
    ExperimentResult, Results, Specs, dr_over_baseline, pair_specs, ratios,
    table,
)
from repro.sweep.jobs import figure_benchmarks
from repro.experiments.fig05_topology import TOPOLOGIES


def specs(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    topologies: Sequence[Topology] = TOPOLOGIES,
) -> Specs:
    """Each topology's baseline and DR on every benchmark, labelled
    ``((topology, 0 | 1), gpu)``."""
    pairs = {}
    for topo in topologies:
        base_cfg, dr_cfg = baseline_config(), delegated_replies_config()
        base_cfg.noc.topology = dr_cfg.noc.topology = topo
        pairs[topo.value] = (base_cfg, dr_cfg)
    return pair_specs(pairs, benchmarks or figure_benchmarks(4),
                      cycles, warmup)


def tabulate(results: Results) -> ExperimentResult:
    """Fig. 16: DR speedup per topology (vs that topology)."""
    rows = []
    for topo, pairs in dr_over_baseline(results).items():
        speedups = ratios(pairs)
        if speedups:
            rows.append((topo, {"dr_speedup": amean(speedups),
                                "min": min(speedups), "max": max(speedups)}))
    return table(
        "fig16_topology_dr", "Fig. 16: DR GPU speedup per topology", rows,
        label_header="topology",
    )
