"""Figures 17 & 18: Delegated Replies across chip layouts (Section VII).

Each layout (with its recommended routing orders) is its own baseline.
Priority for CPU traffic matters more where a layout mixes CPU and GPU
traffic (B and D), so that is where DR's CPU gain should show.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import amean
from repro.config import Layout, baseline_config, delegated_replies_config
from repro.experiments.common import (
    ExperimentResult, Results, Specs, dr_over_baseline, pair_specs, ratios,
    table,
)
from repro.sweep.jobs import figure_benchmarks
from repro.sim.layout import apply_default_orders

LAYOUTS = (Layout.BASELINE, Layout.EDGE, Layout.CLUSTERED, Layout.DISTRIBUTED)


def specs(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Specs:
    """Each layout's baseline and DR, with its recommended routing
    orders, on every benchmark."""
    pairs = {
        layout.value: (
            apply_default_orders(baseline_config(layout=layout)),
            apply_default_orders(delegated_replies_config(layout=layout)),
        )
        for layout in LAYOUTS
    }
    return pair_specs(pairs, benchmarks or figure_benchmarks(4),
                      cycles, warmup)


def tabulate(results: Results) -> ExperimentResult:
    """Figs. 17-18: per-layout DR speedup for GPU and CPU."""
    rows = []
    for layout, pairs in dr_over_baseline(results).items():
        gpu = ratios(pairs)
        if gpu:
            rows.append((layout, {
                "gpu_dr_speedup": amean(gpu),
                "cpu_dr_speedup": amean(ratios(pairs, "cpu_ipc")),
            }))
    return table(
        "fig17_layout_dr", "Figs. 17-18: DR speedup per chip layout", rows,
        label_header="layout",
    )
