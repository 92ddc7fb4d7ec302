"""Figure 5: NoC topology and bandwidth overprovisioning (Section III-B).

(a) Changing the topology (crossbar, flattened butterfly, Dragonfly) barely
moves GPU performance because every memory node still has a single reply
injection link; doubling NoC bandwidth helps because it widens exactly
those bottleneck links.  (b) All topologies show high memory-node blocking
rates at nominal bandwidth.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table, hmean
from repro.config import SystemConfig, Topology, baseline_config
from repro.experiments.common import ExperimentResult, simulate_configs
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
    raw = simulate_configs(
        design_points(bandwidths), benchmarks, cycles, warmup
    )
    base_ipc = {
        gpu: raw[((Topology.MESH, bandwidths[0]), gpu)].gpu_ipc
        for gpu in benchmarks
    }
    rows: List[Tuple[str, dict]] = []
    for topo in TOPOLOGIES:
        for bw in bandwidths:
            speedups = [
                raw[((topo, bw), gpu)].gpu_ipc / base_ipc[gpu]
                for gpu in benchmarks
            ]
            blocking = [
                raw[((topo, bw), gpu)].mem_blocking_rate for gpu in benchmarks
            ]
            label = f"{topo.value}-{bw:g}x"
            rows.append(
                (
                    label,
                    {
                        "hm_gpu_speedup": hmean(speedups),
                        "mem_blocking_rate": sum(blocking) / len(blocking),
                    },
                )
            )
    text = format_table(
        "Fig. 5: topology & bandwidth vs mesh-1x",
        rows,
        mean=None,
        label_header="config",
    )
    return ExperimentResult(
        name="fig05_topology",
        rows=rows,
        text=text,
        data={"benchmarks": benchmarks},
    )
