"""Figure 16: Delegated Replies across NoC topologies (Section VII).

Each topology is its own baseline; DR's gain barely changes because the
clogged resource — the memory node's single reply injection link — exists
in every topology.  Paper: +21.9% (flattened butterfly), +23.9%
(Dragonfly), +28.3% (crossbar), +25.8% (mesh).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import amean, format_table
from repro.config import (
    SystemConfig,
    Topology,
    baseline_config,
    delegated_replies_config,
)
from repro.experiments.common import ExperimentResult, dr_over_baseline
from repro.sweep.jobs import default_benchmarks
from repro.experiments.fig05_topology import TOPOLOGIES


def design_points(
    topologies: Sequence[Topology] = TOPOLOGIES,
) -> Dict[str, Tuple[SystemConfig, SystemConfig]]:
    """``{topology: (baseline config, DR config)}``: the figure's grid (also
    the ``fig16`` grid of :func:`repro.model.validate.grid_specs`)."""
    pairs = {}
    for topo in topologies:
        base_cfg, dr_cfg = baseline_config(), delegated_replies_config()
        base_cfg.noc.topology = dr_cfg.noc.topology = topo
        pairs[topo.value] = (base_cfg, dr_cfg)
    return pairs


def run(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    topologies: Sequence[Topology] = TOPOLOGIES,
) -> ExperimentResult:
    """Regenerate Fig. 16: DR speedup per topology (vs that topology)."""
    benchmarks = list(benchmarks or default_benchmarks(subset=4))
    runs = dr_over_baseline(
        design_points(topologies), benchmarks, cycles, warmup
    )
    rows: List[Tuple[str, dict]] = []
    for topo in topologies:
        speedups = [dr.gpu_ipc / base.gpu_ipc for base, dr in runs[topo.value]]
        rows.append(
            (
                topo.value,
                {
                    "dr_speedup": amean(speedups),
                    "min": min(speedups),
                    "max": max(speedups),
                },
            )
        )
    text = format_table(
        "Fig. 16: DR GPU speedup per topology "
        "(paper: mesh 1.258, fbfly 1.219, dragonfly 1.239, crossbar 1.283)",
        rows,
        mean=None,
        label_header="topology",
    )
    return ExperimentResult(
        name="fig16_topology_dr",
        description="Delegated Replies is topology-insensitive",
        rows=rows,
        text=text,
    )
