"""Bench: regenerate Figs. 17-18 (DR across chip layouts, GPU and CPU)."""

from conftest import record, subset

from repro.experiments import fig17_layout_dr
from repro.sweep.jobs import default_benchmarks


def test_fig17_fig18_layout_dr(run_once):
    benches = default_benchmarks(subset=subset(4))
    result = run_once(lambda: fig17_layout_dr.run(benchmarks=benches))
    record(result)
    rows = dict(result.rows)
    # Fig. 17: GPU gains are uniform across layouts (paper: 25-29%)
    for layout, v in rows.items():
        assert v["gpu_dr_speedup"] > 1.08, f"DR should help GPUs on {layout}"
    # Fig. 18: CPU gains grow with CPU-GPU interference — layouts B
    # (edge) and D (distributed) mix traffic and benefit most
    interference = (
        rows["edge"]["cpu_dr_speedup"] + rows["distributed"]["cpu_dr_speedup"]
    )
    isolated = (
        rows["baseline"]["cpu_dr_speedup"] + rows["clustered"]["cpu_dr_speedup"]
    )
    assert interference > isolated * 0.95
