"""Figure 11: received data rate per GPU core (flits/cycle).

Delegated Replies moves reply traffic off the clogged memory-node links
onto the GPU-to-GPU links, raising the effective NoC bandwidth delivered
to the cores.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import amean
from repro.config.system import MECHANISMS
from repro.experiments.common import (
    ExperimentResult, mechanism_groups, ratio, table,
)
from repro.sweep.jobs import default_benchmarks


def run(
    benchmarks: Optional[Sequence[str]] = None,
    n_mixes: Optional[int] = None,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 11: per-core received data rate by mechanism."""
    benchmarks = list(benchmarks or default_benchmarks())
    rows = []
    for gpu, mixes in mechanism_groups(
        benchmarks, n_mixes, cycles, warmup
    ).items():
        cells = {mech: amean(m[mech].gpu_data_rate for m in mixes)
                 for mech in MECHANISMS}
        cells["dr_gain"] = ratio(cells["dr"], cells["baseline"])
        rows.append((gpu, cells))
    return table(
        "fig11_data_rate",
        "Fig. 11: received data rate per GPU core, flits/cycle",
        rows,
        "amean",
        data={
            "dr_mean_gain": amean(c["dr_gain"] for _, c in rows),
            "rp_mean_gain": amean(ratio(c["rp"], c["baseline"])
                                  for _, c in rows),
        },
    )
