"""Figure 2: inter-core locality of the GPU benchmarks.

The paper motivates Delegated Replies by showing that many of the cache
lines missing in a local L1 are present in at least one remote GPU L1 at
miss time.  We reproduce the measurement with an oracle hook: on every
primary L1 read miss the experiment checks every other GPU core's L1 for
the block.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import amean
from repro.config import baseline_config
from repro.experiments.common import ExperimentResult, ratio, table
from repro.sweep.jobs import JobSpec, default_benchmarks, job


def measure_locality(spec: JobSpec) -> float:
    """Fraction of primary L1 misses present in >=1 remote GPU L1."""
    system = spec.build()
    counters = {"misses": 0, "remote": 0}
    cores = system.gpu_cores

    def observer(core, block):
        counters["misses"] += 1
        for other in cores:
            if other is core:
                continue
            # a line is "available" remotely when it is resident in the L1
            # or outstanding in its MSHRs (the fill is on its way; a remote
            # request would be served as a delayed hit)
            if other.l1.contains(block) or other.mshrs.has(block):
                counters["remote"] += 1
                return

    system.run(spec.warmup)
    for core in cores:
        core.miss_observer = observer
    system.run(spec.cycles)
    return ratio(counters["remote"], counters["misses"])


def run(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Figure 2 (one bar per GPU benchmark + the mean)."""
    rows = [
        (gpu, {"remote_l1_fraction": measure_locality(
            job(baseline_config(), gpu, cycles, warmup))})
        for gpu in benchmarks or default_benchmarks()
    ]
    return table(
        "fig02_locality",
        "Fig. 2: fraction of L1 misses present in a remote L1",
        rows,
        "amean",
        data={"mean": amean(c["remote_l1_fraction"] for _, c in rows)},
    )
