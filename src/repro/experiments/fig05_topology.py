"""Figure 5: NoC topology and bandwidth overprovisioning (Section III-B).

(a) Changing the topology (crossbar, flattened butterfly, Dragonfly) barely
moves GPU performance because every memory node still has a single reply
injection link; doubling NoC bandwidth helps because it widens exactly
those bottleneck links.  (b) All topologies show high memory-node blocking
rates at nominal bandwidth.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.report import amean, hmean
from repro.config import SystemConfig, Topology, baseline_config
from repro.experiments.common import (
    ExperimentResult, ratios, simulate_configs, table,
)
from repro.sweep.jobs import figure_benchmarks

TOPOLOGIES = (
    Topology.MESH,
    Topology.CROSSBAR,
    Topology.FLATTENED_BUTTERFLY,
    Topology.DRAGONFLY,
)


def design_points(
    bandwidths: Sequence[float] = (1.0, 2.0),
) -> Dict[Tuple[Topology, float], SystemConfig]:
    """``{(topology, bandwidth factor): config}``: the figure's grid (also
    the ``fig05`` grid of :func:`repro.model.validate.grid_specs`)."""
    configs = {}
    for topo in TOPOLOGIES:
        for bw in bandwidths:
            cfg = configs[(topo, bw)] = baseline_config()
            cfg.noc.topology = topo
            cfg.noc.bandwidth_factor = bw
    return configs


def run(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    bandwidths: Sequence[float] = (1.0, 2.0),
) -> ExperimentResult:
    """Regenerate Fig. 5a (HM GPU perf vs mesh-1x) and Fig. 5b (blocking)."""
    benchmarks = list(benchmarks or figure_benchmarks(5))
    points = design_points(bandwidths)
    raw = simulate_configs(points, benchmarks, cycles, warmup)
    ref = (Topology.MESH, bandwidths[0])
    rows = [
        (f"{topo.value}-{bw:g}x", {
            "hm_gpu_speedup": hmean(ratios(
                (raw[(ref, gpu)], raw[((topo, bw), gpu)]) for gpu in benchmarks
            )),
            "mem_blocking_rate": amean(
                raw[((topo, bw), gpu)].mem_blocking_rate for gpu in benchmarks
            ),
        })
        for topo, bw in points
    ]
    return table(
        "fig05_topology", "Fig. 5: topology & bandwidth vs mesh-1x", rows,
        label_header="config", data={"benchmarks": benchmarks},
    )
