"""Figure 10: GPU performance improvement of Delegated Replies.

Per GPU benchmark, IPC speedup of RP and Delegated Replies over the
baseline; whiskers show min/max across the benchmark's Table II CPU
co-runners (GPUs are latency-tolerant, so the whiskers are short).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.report import amean, format_table
from repro.experiments.common import ExperimentResult, mechanism_sweep
from repro.sweep.jobs import cpu_corunners, default_benchmarks, default_mixes


def run(
    benchmarks: Optional[Sequence[str]] = None,
    n_mixes: Optional[int] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 10 (set ``n_mixes=3`` for the full 33 workloads)."""
    benchmarks = list(benchmarks or default_benchmarks())
    n_mixes = n_mixes or default_mixes()
    sweep = mechanism_sweep(benchmarks, n_mixes, cycles, warmup)
    rows: List[Tuple[str, dict]] = []
    for gpu in benchmarks:
        cpus = cpu_corunners(gpu, n_mixes)
        rp = [
            sweep[(gpu, c, "rp")].gpu_ipc / sweep[(gpu, c, "baseline")].gpu_ipc
            for c in cpus
        ]
        dr = [
            sweep[(gpu, c, "dr")].gpu_ipc / sweep[(gpu, c, "baseline")].gpu_ipc
            for c in cpus
        ]
        rows.append(
            (
                gpu,
                {
                    "rp_speedup": amean(rp),
                    "dr_speedup": amean(dr),
                    "dr_min": min(dr),
                    "dr_max": max(dr),
                },
            )
        )
    text = format_table(
        "Fig. 10: GPU speedup over baseline",
        rows,
        mean="amean",
        label_header="benchmark",
    )
    dr_mean = amean([r[1]["dr_speedup"] for r in rows])
    rp_mean = amean([r[1]["rp_speedup"] for r in rows])
    return ExperimentResult(
        name="fig10_gpu_perf",
        rows=rows,
        text=text,
        data={
            "dr_mean_speedup": dr_mean,
            "rp_mean_speedup": rp_mean,
            "dr_over_rp": dr_mean / rp_mean if rp_mean else 0.0,
        },
    )
