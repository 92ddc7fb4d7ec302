"""Figure 5: NoC topology and bandwidth overprovisioning (Section III-B).

(a) Changing the topology (crossbar, flattened butterfly, Dragonfly) barely
moves GPU performance because every memory node still has a single reply
injection link; doubling NoC bandwidth helps because it widens exactly
those bottleneck links.  (b) All topologies show high memory-node blocking
rates at nominal bandwidth.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import amean, hmean
from repro.config import Topology, baseline_config
from repro.experiments.common import (
    ExperimentResult, Results, Specs, config_specs, points_and_benchmarks,
    ratios, table,
)
from repro.sweep.jobs import figure_benchmarks

TOPOLOGIES = (
    Topology.MESH,
    Topology.CROSSBAR,
    Topology.FLATTENED_BUTTERFLY,
    Topology.DRAGONFLY,
)


def specs(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    bandwidths: Sequence[float] = (1.0, 2.0),
) -> Specs:
    """Every topology at every bandwidth factor on every benchmark,
    labelled ``((topology, bandwidth factor), gpu)``."""
    configs = {}
    for topo in TOPOLOGIES:
        for bw in bandwidths:
            cfg = configs[(topo, bw)] = baseline_config()
            cfg.noc.topology = topo
            cfg.noc.bandwidth_factor = bw
    return config_specs(configs, benchmarks or figure_benchmarks(5),
                        cycles, warmup)


def tabulate(results: Results) -> ExperimentResult:
    """Fig. 5a (HM GPU perf vs mesh at the first bandwidth) and Fig. 5b
    (blocking)."""
    points, benchmarks = points_and_benchmarks(results)
    ref = points[0]
    rows = [
        (f"{topo.value}-{bw:g}x", {
            "hm_gpu_speedup": hmean(ratios(
                (results[(ref, gpu)], results[((topo, bw), gpu)])
                for gpu in benchmarks
            )),
            "mem_blocking_rate": amean(
                results[((topo, bw), gpu)].mem_blocking_rate
                for gpu in benchmarks
            ),
        })
        for topo, bw in points
    ]
    return table(
        "fig05_topology", "Fig. 5: topology & bandwidth vs mesh-1x", rows,
        label_header="config", data={"benchmarks": benchmarks},
    )
