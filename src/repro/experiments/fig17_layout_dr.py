"""Figures 17 & 18: Delegated Replies across chip layouts (Section VII).

Each layout (with its recommended routing orders) is its own baseline.
Paper: GPU speedups are uniform (+25.8/25.3/29.0/27.0% for Baseline, B, C,
D) while CPU speedups grow with CPU-GPU interference (+3.8/13.4/2.2/20.9%)
— priority for CPU traffic matters more when layouts B and D mix the two.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.report import amean, format_table
from repro.config import Layout, baseline_config, delegated_replies_config
from repro.experiments.common import ExperimentResult, dr_over_baseline
from repro.sweep.jobs import default_benchmarks
from repro.sim.layout import apply_default_orders

LAYOUTS = (Layout.BASELINE, Layout.EDGE, Layout.CLUSTERED, Layout.DISTRIBUTED)


def run(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Figs. 17-18: per-layout DR speedup for GPU and CPU."""
    benchmarks = list(benchmarks or default_benchmarks(subset=4))
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
        "Figs. 17-18: DR speedup per chip layout "
        "(paper GPU: 1.258/1.253/1.290/1.270; CPU: 1.038/1.134/1.022/1.209)",
        rows,
        mean=None,
        label_header="layout",
    )
    return ExperimentResult(
        name="fig17_layout_dr",
        description="Delegated Replies across chip layouts (GPU & CPU)",
        rows=rows,
        text=text,
    )
