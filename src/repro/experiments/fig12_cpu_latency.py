"""Figure 12: CPU network latency under Delegated Replies.

Delegation drains the memory nodes' reply injection buffers, so CPU
requests stop queueing behind blocked GPU replies and CPU packets see much
lower round-trip latencies.  Rows are grouped by CPU benchmark (the
paper's x-axis); whiskers come from the GPU workloads each CPU benchmark
co-runs with.
"""

from __future__ import annotations

from repro.analysis.report import amean
from repro.experiments.common import (
    ExperimentResult, Results, mechanism_groups, mechanism_specs,
    ratios, table,
)

specs = mechanism_specs  # ``n_mixes=3``: the full 33 workloads


def tabulate(results: Results) -> ExperimentResult:
    """Fig. 12: normalised CPU packet latency per CPU bench."""
    rows = []
    for cpu, mixes in mechanism_groups(results, by_cpu=True).items():
        pairs = [(m["baseline"], m["dr"]) for m in mixes]
        avg = ratios(pairs, "cpu_latency_avg")
        if not avg:
            continue
        cells = {"dr_latency_ratio": amean(avg), "min": min(avg),
                 "max": max(avg)}
        # distribution view (telemetry histograms): delegation's win is
        # largest in the tail, where clogging parks CPU packets
        for tail in ("p95", "p99"):
            tail_ratios = ratios(pairs, f"cpu_latency_{tail}")
            if tail_ratios:
                cells[f"dr_{tail}_ratio"] = amean(tail_ratios)
        rows.append((cpu, cells))
    return table(
        "fig12_cpu_latency", "Fig. 12: CPU network latency, DR / baseline",
        rows, "amean", label_header="cpu bench",
        data={"mean_ratio": amean(c["dr_latency_ratio"] for _, c in rows)},
    )
