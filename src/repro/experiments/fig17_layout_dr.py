"""Figures 17 & 18: Delegated Replies across chip layouts (Section VII).

Each layout (with its recommended routing orders) is its own baseline.
Priority for CPU traffic matters more where a layout mixes CPU and GPU
traffic (B and D), so that is where DR's CPU gain should show.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.report import amean, format_table
from repro.config import Layout, baseline_config, delegated_replies_config
from repro.experiments.common import ExperimentResult, dr_over_baseline
from repro.sweep.jobs import figure_benchmarks
from repro.sim.layout import apply_default_orders

LAYOUTS = (Layout.BASELINE, Layout.EDGE, Layout.CLUSTERED, Layout.DISTRIBUTED)


def run(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Figs. 17-18: per-layout DR speedup for GPU and CPU."""
    benchmarks = list(benchmarks or figure_benchmarks(4))
    pairs = {
        layout.value: (
            apply_default_orders(baseline_config(layout=layout)),
            apply_default_orders(delegated_replies_config(layout=layout)),
        )
        for layout in LAYOUTS
    }
    runs = dr_over_baseline(pairs, benchmarks, cycles, warmup)
    rows: List[Tuple[str, dict]] = []
    for layout in LAYOUTS:
        gpu_speedups, cpu_speedups = [], []
        for base, dr in runs[layout.value]:
            gpu_speedups.append(dr.gpu_ipc / base.gpu_ipc)
            if base.cpu_ipc > 0:
                cpu_speedups.append(dr.cpu_ipc / base.cpu_ipc)
        rows.append(
            (
                layout.value,
                {
                    "gpu_dr_speedup": amean(gpu_speedups),
                    "cpu_dr_speedup": amean(cpu_speedups),
                },
            )
        )
    text = format_table(
        "Figs. 17-18: DR speedup per chip layout",
        rows,
        mean=None,
        label_header="layout",
    )
    return ExperimentResult(
        name="fig17_layout_dr",
        rows=rows,
        text=text,
    )
