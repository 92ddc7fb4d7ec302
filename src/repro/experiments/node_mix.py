"""Node-mix study (Section VII, text): varying CPU/GPU/memory node ratios.

Two sweeps on a 64-node chip: (i) 8 memory nodes with 8/16/24 CPU cores
(and 48/40/32 GPU cores), and (ii) 8 CPU cores with 4/8/16 memory nodes:
the GPU-to-memory-node ratio sets how hard the reply links clog.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import baseline_config, delegated_replies_config
from repro.experiments.common import (
    ExperimentResult, Results, Specs, dr_over_baseline, dr_speedup_rows,
    pair_specs, table,
)
from repro.sweep.jobs import figure_benchmarks

#: (n_cpu, n_gpu, n_mem) mixes on the 64-node fabric
CPU_SWEEP = ((8, 48, 8), (16, 40, 8), (24, 32, 8))
MEM_SWEEP = ((8, 52, 4), (8, 48, 8), (8, 40, 16))


def specs(
    benchmarks: Optional[Sequence[str]] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Specs:
    """Each node mix's baseline and DR on every benchmark."""
    # one row per distinct mix: 8/48/8 sits in both sweeps
    pairs = {
        f"{n_cpu}cpu/{n_gpu}gpu/{n_mem}mem": (
            baseline_config(n_cpu=n_cpu, n_gpu=n_gpu, n_mem=n_mem),
            delegated_replies_config(n_cpu=n_cpu, n_gpu=n_gpu, n_mem=n_mem),
        )
        for n_cpu, n_gpu, n_mem in CPU_SWEEP + MEM_SWEEP
    }
    return pair_specs(pairs, benchmarks or figure_benchmarks(3),
                      cycles, warmup)


def tabulate(results: Results) -> ExperimentResult:
    """The node-mix study: DR speedup per mix."""
    return table(
        "node_mix", "Node mix: DR speedup vs node ratios",
        dr_speedup_rows(dr_over_baseline(results)), label_header="mix",
    )
