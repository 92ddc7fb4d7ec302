"""Figure 11: received data rate per GPU core (flits/cycle).

Delegated Replies moves reply traffic off the clogged memory-node links
onto the GPU-to-GPU links, raising the effective NoC bandwidth delivered
to the cores.
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
    """Regenerate Fig. 11: per-core received data rate by mechanism."""
    benchmarks = list(benchmarks or default_benchmarks())
    n_mixes = n_mixes or default_mixes()
    sweep = mechanism_sweep(benchmarks, n_mixes, cycles, warmup)
    rows: List[Tuple[str, dict]] = []
    for gpu in benchmarks:
        cpus = cpu_corunners(gpu, n_mixes)
        base = amean(sweep[(gpu, c, "baseline")].gpu_data_rate for c in cpus)
        rp = amean(sweep[(gpu, c, "rp")].gpu_data_rate for c in cpus)
        dr = amean(sweep[(gpu, c, "dr")].gpu_data_rate for c in cpus)
        rows.append(
            (
                gpu,
                {
                    "baseline": base,
                    "rp": rp,
                    "dr": dr,
                    "dr_gain": dr / base if base else 0.0,
                },
            )
        )
    text = format_table(
        "Fig. 11: received data rate per GPU core, flits/cycle",
        rows,
        mean="amean",
        label_header="benchmark",
    )
    rp_gains = [v["rp"] / v["baseline"] if v["baseline"] else 0.0
                for _, v in rows]
    return ExperimentResult(
        name="fig11_data_rate",
        rows=rows,
        text=text,
        data={
            "dr_mean_gain": amean([r[1]["dr_gain"] for r in rows]),
            "rp_mean_gain": amean(rp_gains),
        },
    )
