"""Figure 10: GPU performance improvement of Delegated Replies.

Per GPU benchmark, IPC speedup of RP and Delegated Replies over the
baseline; whiskers show min/max across the benchmark's Table II CPU
co-runners (GPUs are latency-tolerant, so the whiskers are short).
"""

from __future__ import annotations

from repro.analysis.report import amean
from repro.experiments.common import (
    ExperimentResult, Results, mechanism_groups, mechanism_specs,
    ratio, ratios, table,
)

specs = mechanism_specs  # ``n_mixes=3``: the full 33 workloads


def tabulate(results: Results) -> ExperimentResult:
    """Fig. 10: GPU speedup of RP and DR per GPU benchmark."""
    rows = []
    for gpu, mixes in mechanism_groups(results).items():
        rp = ratios((m["baseline"], m["rp"]) for m in mixes)
        dr = ratios((m["baseline"], m["dr"]) for m in mixes)
        if dr:
            rows.append((gpu, {"rp_speedup": amean(rp),
                               "dr_speedup": amean(dr),
                               "dr_min": min(dr), "dr_max": max(dr)}))
    dr_mean = amean(c["dr_speedup"] for _, c in rows)
    rp_mean = amean(c["rp_speedup"] for _, c in rows)
    return table(
        "fig10_gpu_perf", "Fig. 10: GPU speedup over baseline", rows, "amean",
        data={
            "dr_mean_speedup": dr_mean,
            "rp_mean_speedup": rp_mean,
            "dr_over_rp": ratio(dr_mean, rp_mean),
        },
    )
