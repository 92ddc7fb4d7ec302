"""Figure 12: CPU network latency under Delegated Replies.

Delegation drains the memory nodes' reply injection buffers, so CPU
requests stop queueing behind blocked GPU replies and CPU packets see much
lower round-trip latencies.  Paper: -44.2% on average, up to -59.7%
(dedup).  Rows are grouped by CPU benchmark (the paper's x-axis); whiskers
come from the GPU workloads each CPU benchmark co-runs with.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import amean, format_table
from repro.experiments.common import ExperimentResult, mechanism_sweep
from repro.sweep.jobs import cpu_corunners, default_benchmarks


def _by_cpu(
    benchmarks: Sequence[str], n_mixes: int
) -> Dict[str, List[str]]:
    """CPU benchmark -> GPU benchmarks it co-runs with."""
    groups: Dict[str, List[str]] = defaultdict(list)
    for gpu in benchmarks:
        for cpu in cpu_corunners(gpu, n_mixes):
            groups[cpu].append(gpu)
    return groups


def run(
    benchmarks: Optional[Sequence[str]] = None,
    n_mixes: int = 3,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 12: normalised CPU packet latency per CPU bench."""
    benchmarks = list(benchmarks or default_benchmarks())
    sweep = mechanism_sweep(benchmarks, n_mixes, cycles, warmup)
    rows: List[Tuple[str, dict]] = []
    for cpu, gpus in sorted(_by_cpu(benchmarks, n_mixes).items()):
        ratios = []
        p95_ratios = []
        p99_ratios = []
        for gpu in gpus:
            base_res = sweep[(gpu, cpu, "baseline")]
            dr_res = sweep[(gpu, cpu, "dr")]
            if base_res.cpu_latency_avg > 0:
                ratios.append(dr_res.cpu_latency_avg / base_res.cpu_latency_avg)
            # distribution view (telemetry histograms): delegation's win is
            # largest in the tail, where clogging parks CPU packets
            if base_res.cpu_latency_p95 > 0:
                p95_ratios.append(dr_res.cpu_latency_p95 / base_res.cpu_latency_p95)
            if base_res.cpu_latency_p99 > 0:
                p99_ratios.append(dr_res.cpu_latency_p99 / base_res.cpu_latency_p99)
        if not ratios:
            continue
        cells = {
            "dr_latency_ratio": amean(ratios),
            "min": min(ratios),
            "max": max(ratios),
        }
        if p95_ratios:
            cells["dr_p95_ratio"] = amean(p95_ratios)
        if p99_ratios:
            cells["dr_p99_ratio"] = amean(p99_ratios)
        rows.append((cpu, cells))
    text = format_table(
        "Fig. 12: CPU network latency, DR / baseline "
        "(paper: 0.558 avg, down to 0.403)",
        rows,
        mean="amean",
        label_header="cpu bench",
    )
    return ExperimentResult(
        name="fig12_cpu_latency",
        description="CPU packet latency reduction under Delegated Replies",
        rows=rows,
        text=text,
        data={"mean_ratio": amean([r[1]["dr_latency_ratio"] for r in rows])},
    )
