"""Figure 11: received data rate per GPU core (flits/cycle).

Delegated Replies moves reply traffic off the clogged memory-node links
onto the GPU-to-GPU links, raising the effective NoC bandwidth delivered
to the cores.  Paper: +26.5% on average (up to 70.9%) vs +11.9% for RP.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.report import amean, format_table
from repro.experiments.common import ExperimentResult, mechanism_sweep
from repro.sweep.jobs import cpu_corunners, default_benchmarks


def run(
    benchmarks: Optional[Sequence[str]] = None,
    n_mixes: int = 1,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 11: per-core received data rate by mechanism."""
    benchmarks = list(benchmarks or default_benchmarks())
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
        "Fig. 11: received data rate per GPU core, flits/cycle "
        "(paper: DR +26.5% avg, up to +70.9%; RP +11.9%)",
        rows,
        mean="amean",
        label_header="benchmark",
    )
    return ExperimentResult(
        name="fig11_data_rate",
        description="Effective NoC bandwidth delivered to GPU cores",
        rows=rows,
        text=text,
        data={"dr_mean_gain": amean([r[1]["dr_gain"] for r in rows])},
    )
