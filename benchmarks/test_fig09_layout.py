"""Bench: regenerate Fig. 9 (layout and routing-policy study)."""

from conftest import record, subset

from repro.experiments import fig09_layout
from repro.sweep.jobs import default_benchmarks


def test_fig09_layout(run_once):
    benches = default_benchmarks(subset=subset(4))
    result = run_once(lambda: fig09_layout.run(benchmarks=benches))
    record(result)
    rows = dict(result.rows)
    base = rows["Baseline YX-XY"]
    assert base["gpu_perf"] == 1.0 and base["cpu_perf"] == 1.0
    # paper: the baseline is the only layout good at both; every other
    # layout/routing point gives up GPU or CPU performance
    for label, values in rows.items():
        if label == "Baseline YX-XY":
            continue
        assert (
            values["gpu_perf"] < 1.10 or values["cpu_perf"] < 1.10
        ), f"{label} should not dominate the baseline on both axes"
    # layout C clusters CPUs: its CPU perf should hold up reasonably
    assert rows["C XY-YX"]["cpu_perf"] > 0.55
    # layout B without its recommended XY-YX ordering collapses GPU perf
    # (memory-row congestion, Section V)
    assert rows["B XY-XY"]["gpu_perf"] < rows["B XY-YX"]["gpu_perf"]
