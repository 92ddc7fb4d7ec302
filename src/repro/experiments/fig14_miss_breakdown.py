"""Figure 14: L1 miss breakdown under Delegated Replies.

Splits GPU L1 misses into (i) served directly by the memory node ("LLC"),
(ii) delegated and served by a remote L1 (remote hit, including delayed
hits on outstanding lines), and (iii) delegated but missing remotely
(remote miss — re-sent to the LLC with the DNF bit).
"""

from __future__ import annotations

from repro.analysis.report import amean
from repro.experiments.common import (
    ExperimentResult, Results, mechanism_groups, mechanism_specs, table,
)

specs = mechanism_specs  # ``n_mixes=3``: the full 33 workloads


def tabulate(results: Results) -> ExperimentResult:
    """Fig. 14 from the Delegated Replies runs."""
    # the first co-runner's DR run: {llc, remote_hit, remote_miss}
    rows = [
        (gpu, mixes[0]["dr"].miss_breakdown())
        for gpu, mixes in mechanism_groups(results).items()
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
