"""Figure 9: chip layout and routing-policy study (Section V).

Compares the four layouts of Figure 1 under their candidate CDR dimension
orders, normalised to Baseline YX-XY (memory column between CPUs and
GPUs, YX requests / XY replies).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.analysis.report import amean
from repro.config import DimensionOrder, Layout, baseline_config
from repro.experiments.common import (
    ExperimentResult, Results, Specs, config_specs, points_and_benchmarks,
    ratio, table,
)
from repro.sweep.jobs import figure_benchmarks

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


def specs(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Specs:
    """Every layout-routing configuration on every benchmark."""
    configs = {
        (layout, req, rep): baseline_config().update({
            "layout": layout, "noc": {"request_order": req, "reply_order": rep},
        })
        for layout, req, rep in CONFIGS
    }
    return config_specs(configs, benchmarks or figure_benchmarks(4),
                        cycles, warmup)


def tabulate(results: Results) -> ExperimentResult:
    """Fig. 9: average GPU and CPU perf per layout/routing."""
    benchmarks = points_and_benchmarks(results)[1]

    def perf(point, metric):
        """``metric`` averaged over the benchmarks, over the reference's."""
        def mean(p):
            return amean(getattr(results[(p, gpu)], metric)
                         for gpu in benchmarks)
        return ratio(mean(point), mean(CONFIGS[0]))

    rows = [
        (_label(*point), {"gpu_perf": perf(point, "gpu_ipc"),
                          "cpu_perf": perf(point, "cpu_ipc")})
        for point in CONFIGS
    ]
    return table(
        "fig09_layout",
        "Fig. 9: layout & routing, normalised to Baseline YX-XY",
        rows,
        label_header="layout-routing",
        data={"benchmarks": benchmarks},
    )
