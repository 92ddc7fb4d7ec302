"""Figure 14: L1 miss breakdown under Delegated Replies.

Splits GPU L1 misses into (i) served directly by the memory node ("LLC"),
(ii) delegated and served by a remote L1 (remote hit, including delayed
hits on outstanding lines), and (iii) delegated but missing remotely
(remote miss — re-sent to the LLC with the DNF bit).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import amean
from repro.experiments.common import ExperimentResult, mechanism_groups, table
from repro.sweep.jobs import default_benchmarks


def run(
    benchmarks: Optional[Sequence[str]] = None,
    n_mixes: Optional[int] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 14 from the Delegated Replies runs."""
    benchmarks = list(benchmarks or default_benchmarks())
    # the first co-runner's DR run: {llc, remote_hit, remote_miss}
    rows = [
        (gpu, mixes[0]["dr"].miss_breakdown())
        for gpu, mixes in mechanism_groups(
            benchmarks, n_mixes, cycles, warmup
        ).items()
    ]
    delegated = [c["remote_hit"] + c["remote_miss"] for _, c in rows]
    # a benchmark that delegated nothing had no remote hits
    hit_of_delegated = [
        c["remote_hit"] / d if d else 0.0 for (_, c), d in zip(rows, delegated)
    ]
    return table(
        "fig14_miss_breakdown", "Fig. 14: L1 miss breakdown under DR", rows,
        "amean",
        data={
            "mean_delegated": amean(delegated),
            "mean_remote_hit_rate": amean(hit_of_delegated),
        },
    )
