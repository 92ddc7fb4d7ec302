"""Figure 7: adaptive routing vs CDR (Section III-B).

DyXY [45], Footprint [22] and HARE [37] route around *unbalanced*
congestion — but the request network has none, and in the reply network
every path from a memory node is equally clogged, so the adaptive schemes
pay their overheads for nothing.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.config import RoutingPolicy, baseline_config
from repro.experiments.common import ExperimentResult, simulate_configs
from repro.sweep.jobs import figure_benchmarks

ADAPTIVE_POLICIES = (
    RoutingPolicy.DYXY,
    RoutingPolicy.FOOTPRINT,
    RoutingPolicy.HARE,
)


def run(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 7: adaptive-routing GPU perf normalised to CDR."""
    benchmarks = list(benchmarks or figure_benchmarks(5))
    configs = {"cdr": baseline_config()}
    for policy in ADAPTIVE_POLICIES:
        configs[policy] = baseline_config()
        configs[policy].noc.routing = policy
    raw = simulate_configs(configs, benchmarks, cycles, warmup)
    rows: List[Tuple[str, dict]] = []
    for gpu in benchmarks:
        values = {
            policy.value: raw[(policy, gpu)].gpu_ipc / raw[("cdr", gpu)].gpu_ipc
            for policy in ADAPTIVE_POLICIES
        }
        rows.append((gpu, values))
    text = format_table(
        "Fig. 7: adaptive routing vs CDR baseline",
        rows,
        mean="hmean",
        label_header="benchmark",
    )
    return ExperimentResult(
        name="fig07_adaptive",
        rows=rows,
        text=text,
    )
