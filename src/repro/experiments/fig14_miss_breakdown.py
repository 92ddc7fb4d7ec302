"""Figure 14: L1 miss breakdown under Delegated Replies.

Splits GPU L1 misses into (i) served directly by the memory node ("LLC"),
(ii) delegated and served by a remote L1 (remote hit, including delayed
hits on outstanding lines), and (iii) delegated but missing remotely
(remote miss — re-sent to the LLC with the DNF bit).
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
    """Regenerate Fig. 14 from the Delegated Replies runs."""
    benchmarks = list(benchmarks or default_benchmarks())
    sweep = mechanism_sweep(
        benchmarks, n_mixes or default_mixes(), cycles, warmup
    )
    rows: List[Tuple[str, dict]] = []
    for gpu in benchmarks:
        cpu = cpu_corunners(gpu, 1)[0]
        res = sweep[(gpu, cpu, "dr")]
        breakdown = res.miss_breakdown()
        rows.append(
            (
                gpu,
                {
                    "llc": breakdown["llc"],
                    "remote_hit": breakdown["remote_hit"],
                    "remote_miss": breakdown["remote_miss"],
                },
            )
        )
    delegated = [
        r[1]["remote_hit"] + r[1]["remote_miss"] for r in rows
    ]
    hit_of_delegated = [
        r[1]["remote_hit"] / d if d else 0.0
        for r, d in zip(rows, delegated)
    ]
    text = format_table(
        "Fig. 14: L1 miss breakdown under DR",
        rows,
        mean="amean",
        label_header="benchmark",
    )
    return ExperimentResult(
        name="fig14_miss_breakdown",
        rows=rows,
        text=text,
        data={
            "mean_delegated": amean(delegated),
            "mean_remote_hit_rate": amean(hit_of_delegated),
        },
    )
