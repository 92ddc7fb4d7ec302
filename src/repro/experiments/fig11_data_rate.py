"""Figure 11: received data rate per GPU core (flits/cycle).

Delegated Replies moves reply traffic off the clogged memory-node links
onto the GPU-to-GPU links, raising the effective NoC bandwidth delivered
to the cores.
"""

from __future__ import annotations

from repro.analysis.report import amean
from repro.config.system import MECHANISMS
from repro.experiments.common import (
    ExperimentResult, Results, mechanism_groups, mechanism_specs, ratio, table,
)

specs = mechanism_specs  # ``n_mixes=3``: the full 33 workloads


def tabulate(results: Results) -> ExperimentResult:
    """Fig. 11: per-core received data rate by mechanism."""
    rows = []
    for gpu, mixes in mechanism_groups(results).items():
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
