"""Figure 13: CPU performance improvement under Delegated Replies.

Lower CPU network latency turns into CPU IPC gains whose size depends on
the benchmark's latency sensitivity and on how badly the co-running GPU
workload clogs the memory nodes; the clogged workloads are the whisker
maxima.
"""

from __future__ import annotations

from repro.analysis.report import amean
from repro.experiments.common import (
    ExperimentResult, Results, mechanism_groups, mechanism_specs,
    ratios, table,
)

specs = mechanism_specs  # ``n_mixes=3``: the full 33 workloads


def tabulate(results: Results) -> ExperimentResult:
    """Fig. 13: CPU speedup (DR / baseline) per CPU benchmark."""
    rows = []
    for cpu, mixes in mechanism_groups(results, by_cpu=True).items():
        dr = ratios(((m["baseline"], m["dr"]) for m in mixes), "cpu_ipc")
        rp = ratios(((m["baseline"], m["rp"]) for m in mixes), "cpu_ipc")
        if dr:
            rows.append((cpu, {"dr_speedup": amean(dr), "min": min(dr),
                               "max": max(dr), "rp_speedup": amean(rp)}))
    return table(
        "fig13_cpu_perf",
        "Fig. 13: CPU speedup, DR / baseline per CPU benchmark",
        rows,
        "amean",
        label_header="cpu bench",
        data={
            "mean_speedup": amean(c["dr_speedup"] for _, c in rows),
            "clogged_mean_speedup": amean(c["max"] for _, c in rows),
        },
    )
