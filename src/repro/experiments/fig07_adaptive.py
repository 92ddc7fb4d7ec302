"""Figure 7: adaptive routing vs CDR (Section III-B).

DyXY [45], Footprint [22] and HARE [37] route around *unbalanced*
congestion — but the request network has none, and in the reply network
every path from a memory node is equally clogged, so the adaptive schemes
pay their overheads for nothing.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import RoutingPolicy, baseline_config
from repro.experiments.common import (
    ExperimentResult, over_reference, simulate_configs, table,
)
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
    rows = over_reference(
        raw, "cdr", {p.value: p for p in ADAPTIVE_POLICIES}, benchmarks
    )
    return table(
        "fig07_adaptive", "Fig. 7: adaptive routing vs CDR baseline", rows,
        "hmean",
    )
