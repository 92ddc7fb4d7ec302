"""Node-mix study (Section VII, text): varying CPU/GPU/memory node ratios.

Two sweeps on a 64-node chip: (i) 8 memory nodes with 8/16/24 CPU cores
(and 48/40/32 GPU cores), and (ii) 8 CPU cores with 4/8/16 memory nodes:
the GPU-to-memory-node ratio sets how hard the reply links clog.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import baseline_config, delegated_replies_config
from repro.experiments.common import (
    ExperimentResult, dr_over_baseline, dr_speedup_rows, table,
)
from repro.sweep.jobs import figure_benchmarks

#: (n_cpu, n_gpu, n_mem) mixes on the 64-node fabric
CPU_SWEEP = ((8, 48, 8), (16, 40, 8), (24, 32, 8))
MEM_SWEEP = ((8, 52, 4), (8, 48, 8), (8, 40, 16))


def run(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate the node-mix study."""
    benchmarks = list(benchmarks or figure_benchmarks(3))
    # one row per distinct mix: 8/48/8 sits in both sweeps
    pairs = {
        f"{n_cpu}cpu/{n_gpu}gpu/{n_mem}mem": (
            baseline_config(n_cpu=n_cpu, n_gpu=n_gpu, n_mem=n_mem),
            delegated_replies_config(n_cpu=n_cpu, n_gpu=n_gpu, n_mem=n_mem),
        )
        for n_cpu, n_gpu, n_mem in CPU_SWEEP + MEM_SWEEP
    }
    runs = dr_over_baseline(pairs, benchmarks, cycles, warmup)
    return table(
        "node_mix", "Node mix: DR speedup vs node ratios",
        dr_speedup_rows(runs), label_header="mix",
    )
