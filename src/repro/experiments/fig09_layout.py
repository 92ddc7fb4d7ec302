"""Figure 9: chip layout and routing-policy study (Section V).

Compares the four layouts of Figure 1 under their candidate CDR dimension
orders, normalised to Baseline YX-XY.  The paper's conclusions: the
baseline layout (memory column between CPUs and GPUs, YX requests / XY
replies) is the only one that provides both good CPU and GPU performance;
Layout B needs XY-YX to avoid memory-row congestion; Layout C favours
CPUs; Layout D favours GPUs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.report import amean, format_table
from repro.config import DimensionOrder, Layout, baseline_config
from repro.experiments.common import ExperimentResult, simulate_configs
from repro.sweep.jobs import default_benchmarks

#: (layout, request order, reply order) configurations of Fig. 9
CONFIGS: Tuple[Tuple[Layout, DimensionOrder, DimensionOrder], ...] = (
    (Layout.BASELINE, DimensionOrder.YX, DimensionOrder.XY),
    (Layout.BASELINE, DimensionOrder.XY, DimensionOrder.XY),
    (Layout.EDGE, DimensionOrder.XY, DimensionOrder.YX),
    (Layout.EDGE, DimensionOrder.XY, DimensionOrder.XY),
    (Layout.CLUSTERED, DimensionOrder.XY, DimensionOrder.YX),
    (Layout.CLUSTERED, DimensionOrder.XY, DimensionOrder.XY),
    (Layout.DISTRIBUTED, DimensionOrder.XY, DimensionOrder.XY),
)

_LAYOUT_LABEL = {
    Layout.BASELINE: "Baseline",
    Layout.EDGE: "B",
    Layout.CLUSTERED: "C",
    Layout.DISTRIBUTED: "D",
}


def _label(layout: Layout, req: DimensionOrder, rep: DimensionOrder) -> str:
    return f"{_LAYOUT_LABEL[layout]} {req.value.upper()}-{rep.value.upper()}"


def run(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 9: average GPU and CPU perf per layout/routing."""
    benchmarks = list(benchmarks or default_benchmarks(subset=4))
    configs = {}
    for point in CONFIGS:
        layout, req, rep = point
        cfg = configs[point] = baseline_config()
        cfg.layout = layout
        cfg.noc.request_order = req
        cfg.noc.reply_order = rep
    raw = simulate_configs(configs, benchmarks, cycles, warmup)
    ref = CONFIGS[0]
    ref_gpu = amean(raw[(ref, gpu)].gpu_ipc for gpu in benchmarks)
    ref_cpu = amean(raw[(ref, gpu)].cpu_ipc for gpu in benchmarks)
    rows: List[Tuple[str, dict]] = []
    for point in CONFIGS:
        gpu_perf = amean(raw[(point, gpu)].gpu_ipc for gpu in benchmarks)
        cpu_perf = amean(raw[(point, gpu)].cpu_ipc for gpu in benchmarks)
        rows.append(
            (
                _label(*point),
                {
                    "gpu_perf": gpu_perf / ref_gpu if ref_gpu else 0.0,
                    "cpu_perf": cpu_perf / ref_cpu if ref_cpu else 0.0,
                },
            )
        )
    text = format_table(
        "Fig. 9: layout & routing, normalised to Baseline YX-XY "
        "(paper: Baseline best overall; B needs XY-YX; C favours CPUs; "
        "D favours GPUs)",
        rows,
        mean=None,
        label_header="layout-routing",
    )
    return ExperimentResult(
        name="fig09_layout",
        description="Chip layout / routing policy study",
        rows=rows,
        text=text,
        data={"benchmarks": benchmarks},
    )
