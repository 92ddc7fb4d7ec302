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
    ExperimentResult, Results, Specs, config_specs, over_reference, table,
)
from repro.sweep.jobs import figure_benchmarks

ADAPTIVE_POLICIES = (
    RoutingPolicy.DYXY,
    RoutingPolicy.FOOTPRINT,
    RoutingPolicy.HARE,
)


def specs(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Specs:
    """CDR and every adaptive policy on every benchmark."""
    configs = {"cdr": baseline_config()}
    for policy in ADAPTIVE_POLICIES:
        configs[policy] = baseline_config()
        configs[policy].noc.routing = policy
    return config_specs(configs, benchmarks or figure_benchmarks(5),
                        cycles, warmup)


def tabulate(results: Results) -> ExperimentResult:
    """Fig. 7: adaptive-routing GPU perf normalised to CDR."""
    rows = over_reference(
        results, "cdr", {p.value: p for p in ADAPTIVE_POLICIES}
    )
    return table(
        "fig07_adaptive", "Fig. 7: adaptive routing vs CDR baseline", rows,
        "hmean",
    )
