"""Figure 13: CPU performance improvement under Delegated Replies.

Lower CPU network latency turns into CPU IPC gains whose size depends on
the benchmark's latency sensitivity (vips gains most, dedup least) and on
how badly the co-running GPU workload clogs the memory nodes.  Paper:
+3.8% on average across everything, +8.8% (up to +19.8%) across the
clogged workloads — the whisker maxima.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import amean, format_table
from repro.experiments.common import ExperimentResult, mechanism_sweep
from repro.sweep.jobs import cpu_corunners, default_benchmarks


def run(
    benchmarks: Optional[Sequence[str]] = None,
    n_mixes: int = 3,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 13: CPU speedup (DR / baseline) per CPU benchmark."""
    benchmarks = list(benchmarks or default_benchmarks())
    sweep = mechanism_sweep(benchmarks, n_mixes, cycles, warmup)
    groups: Dict[str, List[float]] = defaultdict(list)
    rp_groups: Dict[str, List[float]] = defaultdict(list)
    for gpu in benchmarks:
        for cpu in cpu_corunners(gpu, n_mixes):
            base = sweep[(gpu, cpu, "baseline")].cpu_ipc
            if base <= 0:
                continue
            groups[cpu].append(sweep[(gpu, cpu, "dr")].cpu_ipc / base)
            rp_groups[cpu].append(sweep[(gpu, cpu, "rp")].cpu_ipc / base)
    rows: List[Tuple[str, dict]] = []
    for cpu in sorted(groups):
        vals = groups[cpu]
        rows.append(
            (
                cpu,
                {
                    "dr_speedup": amean(vals),
                    "min": min(vals),
                    "max": max(vals),
                    "rp_speedup": amean(rp_groups[cpu]),
                },
            )
        )
    maxima = [r[1]["max"] for r in rows]
    text = format_table(
        "Fig. 13: CPU speedup, DR / baseline per CPU benchmark "
        "(paper: +3.8% avg, +8.8% on clogged workloads, max +19.8%)",
        rows,
        mean="amean",
        label_header="cpu bench",
    )
    return ExperimentResult(
        name="fig13_cpu_perf",
        description="CPU performance improvement under Delegated Replies",
        rows=rows,
        text=text,
        data={
            "mean_speedup": amean([r[1]["dr_speedup"] for r in rows]),
            "clogged_mean_speedup": amean(maxima),
        },
    )
