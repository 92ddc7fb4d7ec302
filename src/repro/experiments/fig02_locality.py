"""Figure 2: inter-core locality of the GPU benchmarks.

The paper motivates Delegated Replies by showing that many of the cache
lines missing in a local L1 are present in at least one remote GPU L1 at
miss time.  We reproduce the measurement with an oracle: on every
primary L1 read miss the telemetry collector checks every other GPU
core's L1 and MSHRs for the block, and the job reports the measured
window's two counts (``locality.misses``, ``locality.remote``).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import amean
from repro.config import baseline_config
from repro.experiments.common import (
    ExperimentResult, Results, Specs, ratio, table, traced,
)
from repro.sweep.jobs import default_benchmarks, job


def specs(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Specs:
    """One traced baseline job per GPU benchmark, labelled by it."""
    return {
        gpu: job(traced(baseline_config()), gpu, cycles, warmup)
        for gpu in benchmarks or default_benchmarks()
    }


def tabulate(results: Results) -> ExperimentResult:
    """Figure 2: one bar per GPU benchmark + the mean."""
    rows = [
        (gpu, {"remote_l1_fraction": ratio(
            res.telemetry_metrics["locality.remote"],
            res.telemetry_metrics["locality.misses"])})
        for gpu, res in results.items()
    ]
    return table(
        "fig02_locality",
        "Fig. 2: fraction of L1 misses present in a remote L1",
        rows,
        "amean",
        data={"mean": amean(c["remote_l1_fraction"] for _, c in rows)},
    )
