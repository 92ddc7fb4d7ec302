"""Figure 13: CPU performance improvement under Delegated Replies.

Lower CPU network latency turns into CPU IPC gains whose size depends on
the benchmark's latency sensitivity and on how badly the co-running GPU
workload clogs the memory nodes; the clogged workloads are the whisker
maxima.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import amean
from repro.experiments.common import (
    ExperimentResult, mechanism_groups, ratios, table,
)
from repro.sweep.jobs import default_benchmarks


def run(
    benchmarks: Optional[Sequence[str]] = None,
    n_mixes: Optional[int] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 13: CPU speedup (DR / baseline) per CPU benchmark."""
    benchmarks = list(benchmarks or default_benchmarks())
    rows = []
    for cpu, mixes in mechanism_groups(
        benchmarks, n_mixes, cycles, warmup, by_cpu=True
    ).items():
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
